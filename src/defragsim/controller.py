"""Defragmentation controller: watches the placement, plans migrations.

The controller converts the live placement into a solver instance at the
granularity the fragmentation bound actually cares about: each pipeline
stage is an independent pseudo-job whose atomic unit is one TP group and
whose ring weight is its TP degree (a fragmented stage puts one ring per
TP rank on every rack it touches).

Violations are local, so the instance is reduced before solving: only
stages that are themselves fragmented or that occupy an over-threshold
rack are movable; everything else is frozen into per-rack capacity and
ring base load. If the reduced instance is infeasible the controller
retries with every stage movable before giving up.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .defrag import (
    InfeasibleError, MigrationPlan, MoveBudgetExceeded, SolverInstance,
    SolverTimeout, is_fragmented, ring_loads, solve,
)
from .fragmentation import stage_rows
from .jobmodel import WorkerMove
from .scheduler import Placement

log = logging.getLogger(__name__)

StageKey = tuple[int, int]  # (job_id, pipeline stage)


@dataclass
class ControllerConfig:
    threshold: float = 2.0  # max ring-weighted fragmented stages per rack
    solver_time_limit: float = 10.0
    # Migration batches larger than this are never worth the disruption;
    # the cap also keeps the solver's search space small.
    max_moves: int | None = 16
    enabled: bool = True


def build_instance(placement: Placement, threshold: float,
                   reduce: bool = True) -> SolverInstance | None:
    """Solver instance for the current placement, or None if compliant.

    With ``reduce`` set, frozen stages contribute capacity consumption
    and ring base load but are not decision variables.
    """
    stages = stage_rows(placement)
    num_racks = placement.topology.num_racks
    loads = ring_loads(stages.jobs, stages.rows, [0] * num_racks)
    violating = {t for t in range(num_racks) if loads[t] > threshold}
    if not violating:
        return None

    if reduce:
        movable = [i for i, row in enumerate(stages.rows)
                   if is_fragmented(row) and any(row[t] for t in violating)]
    else:
        movable = list(range(len(stages.jobs)))
    movable_set = set(movable)
    frozen = [i for i in range(len(stages.jobs)) if i not in movable_set]

    capacities = [placement.topology.gpus_per_rack] * num_racks
    for i in frozen:
        for t, v in enumerate(stages.rows[i]):
            capacities[t] -= stages.jobs[i].unit_size * v
    base_load = ring_loads([stages.jobs[i] for i in frozen],
                           [stages.rows[i] for i in frozen],
                           [0] * num_racks)
    return SolverInstance(
        num_racks=num_racks,
        capacities=tuple(capacities),
        threshold=threshold,
        jobs=tuple(stages.jobs[i] for i in movable),
        initial=tuple(tuple(stages.rows[i]) for i in movable),
        base_load=tuple(base_load),
    )


class ResolutionError(RuntimeError):
    """A rack-level plan could not be packed onto concrete hosts."""


def resolve_plan(placement: Placement, plan: MigrationPlan
                 ) -> list[WorkerMove]:
    """Turn rack-level moves into per-worker host assignments.

    All departing units are released first, then destinations are packed
    best-fit, largest units first, against the post-release free map --
    consistent with the batch committing atomically.
    """
    free = [[placement.free_slots(r, h)
             for h in range(placement.topology.hosts_per_rack)]
            for r in range(placement.topology.num_racks)]

    # pick which concrete TP units leave each rack: lowest dp rank first
    unit_moves: list[tuple[int, list, int]] = []  # (unit_size, workers, dst)
    available: dict[tuple[StageKey, int], list[int]] = {}
    for mv in plan.moves:
        job_id, stage = mv.key
        job = placement.jobs[job_id]
        pool_key = (mv.key, mv.from_rack)
        if pool_key not in available:
            available[pool_key] = [
                dp for dp in range(job.dp_degree)
                if placement.locate(
                    (job_id, job.worker_index(stage, dp, 0))
                ).rack == mv.from_rack]
        pool = available[pool_key]
        for _ in range(mv.workers // job.tp_degree):
            dp = pool.pop(0)
            workers = [(job_id, job.worker_index(stage, dp, tp))
                       for tp in range(job.tp_degree)]
            src = placement.locate(workers[0])
            free[src.rack][src.host] += job.tp_degree
            unit_moves.append((job.tp_degree, workers, mv.to_rack))

    moves: list[WorkerMove] = []
    for unit_size, workers, dst_rack in sorted(
            unit_moves, key=lambda m: (-m[0], m[1][0])):
        fitting = [(free[dst_rack][h], h)
                   for h in range(placement.topology.hosts_per_rack)
                   if free[dst_rack][h] >= unit_size]
        if not fitting:
            raise ResolutionError(
                f"no host in rack {dst_rack} fits a unit of {unit_size}")
        _, host = min(fitting)
        free[dst_rack][host] -= unit_size
        moves.extend(WorkerMove(w, dst_rack, host) for w in workers)
    return moves


@dataclass
class DefragDecision:
    moves: list[WorkerMove]
    plan: MigrationPlan


class DefragController:
    """Plans migration batches whenever the placement changes."""

    def __init__(self, placement: Placement, config: ControllerConfig):
        self.placement = placement
        self.config = config
        self.skipped_infeasible = 0
        self._last_skipped: SolverInstance | None = None

    def check(self) -> DefragDecision | None:
        """Return the migration batch restoring the threshold, if needed."""
        if not self.config.enabled:
            return None
        instance = build_instance(self.placement, self.config.threshold)
        if instance is None:
            return None
        if instance == self._last_skipped:
            # identical stuck instance: don't burn solver time again
            self.skipped_infeasible += 1
            return None
        try:
            plan = self._solve_with_fallback(instance)
            if not plan.stats.optimal:
                # Only proven-minimal plans are worth the disruption; a
                # timed-out incumbent is a wholesale re-placement. Leave
                # the violation standing and retry on the next change.
                log.warning("defrag skipped: solver hit its time limit")
                self.skipped_infeasible += 1
                self._last_skipped = instance
                return None
            moves = resolve_plan(self.placement, plan)
        except (InfeasibleError, MoveBudgetExceeded, ResolutionError,
                SolverTimeout) as exc:
            # No acceptable plan exists right now (or it cannot be
            # packed); leave the violation standing until churn helps.
            log.warning("defrag skipped: %s", exc)
            self.skipped_infeasible += 1
            self._last_skipped = instance
            return None
        if not moves:
            return None
        return DefragDecision(moves=moves, plan=plan)

    def _solve_with_fallback(self, instance: SolverInstance) -> MigrationPlan:
        try:
            return solve(instance, time_limit=self.config.solver_time_limit,
                         max_moves=self.config.max_moves)
        except InfeasibleError:
            full = build_instance(self.placement, self.config.threshold,
                                  reduce=False)
            assert full is not None
            return solve(full, time_limit=self.config.solver_time_limit,
                         max_moves=self.config.max_moves)
