"""Defragmentation controller: watches the placement, plans migrations.

The controller converts the live placement into a solver instance at the
granularity the fragmentation bound actually cares about: each pipeline
stage is an independent pseudo-job whose atomic unit is one TP group and
whose ring weight is its TP degree (a fragmented stage puts one ring per
TP rank on every rack it touches).

Violations are local, so the instance is reduced before solving: only
fragmented stages that occupy an over-threshold rack are movable;
everything else is frozen into per-rack capacity and ring base load.
Each check solves that one instance once. If it has no plan within the
move cap, the violation stands until the placement changes.

A plan is the solver's target row, units per rack, for each movable
stage; ``resolve_plan`` turns the rows into per-worker host moves.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from .defrag import (
    InfeasibleError, MigrationPlan, MoveBudgetExceeded, SolverInstance,
    SolverStats, SolverTimeout, is_fragmented, solve,
)
from .fragmentation import StageRows, stage_rows
from .jobmodel import WorkerMove
from .scheduler import Placement

log = logging.getLogger(__name__)


@dataclass
class ControllerConfig:
    """The controller's settings: the config file's ``controller``
    block, and the defaults of ``Simulation``'s keywords."""
    # max ring-weighted fragmented stages per rack; None: uplinks per ToR
    threshold: float | None = None
    solver_time_limit: float = 10.0
    # Migration batches larger than this are never worth the disruption;
    # the cap also keeps the solver's search space small. None lifts it.
    max_moves: int | None = 16


def build_instance(placement: Placement, threshold: float,
                   stages: StageRows | None = None
                   ) -> SolverInstance | None:
    """Solver instance for the current placement, or None if compliant.

    The fragmented stages on over-threshold racks are the decision
    variables. One pass over the rows takes every other stage's units
    off the rack capacities and each movable stage's ring weight off the
    ring loads, leaving the frozen base load. ``stages``, the
    placement's current ``stage_rows``, saves building them again.
    """
    if stages is None:
        stages = stage_rows(placement)
    num_racks = placement.topology.num_racks
    base_load = list(stages.loads)
    violating = [t for t in range(num_racks) if base_load[t] > threshold]
    if not violating:
        return None

    capacities = [placement.topology.gpus_per_rack] * num_racks
    jobs, initial = [], []
    for job, row in zip(stages.jobs, stages.rows):
        if is_fragmented(row) and any(row[t] for t in violating):
            jobs.append(job)
            initial.append(row)
            for t, v in enumerate(row):
                if v:
                    base_load[t] -= job.ring_weight
        else:
            for t, v in enumerate(row):
                capacities[t] -= job.unit_size * v
    return SolverInstance(
        num_racks=num_racks, capacities=tuple(capacities),
        threshold=threshold, jobs=tuple(jobs), initial=tuple(initial),
        base_load=tuple(base_load))


class ResolutionError(RuntimeError):
    """A plan's target rows could not be packed onto concrete hosts."""


def resolve_plan(placement: Placement, instance: SolverInstance,
                 plan: MigrationPlan) -> list[WorkerMove]:
    """Turn the plan's target rows into per-worker host assignments.

    A stage whose row differs from its ``instance`` row sends the TP
    units it leaves, lowest dp rank first and racks in ascending order,
    to the racks it gains, in rack order. All leaving units are released
    first, then destinations are packed best-fit, largest units first,
    against the post-release free map -- consistent with the batch
    committing atomically.
    """
    topology = placement.topology
    free = [[placement.free_slots(r, h)
             for h in range(topology.hosts_per_rack)]
            for r in range(topology.num_racks)]

    unit_moves: list[tuple[int, list, int]] = []  # (unit_size, workers, dst)
    for solver_job, row0, row in zip(instance.jobs, instance.initial,
                                     plan.target):
        if row == row0:
            continue
        job_id, stage = solver_job.key
        job = placement.jobs[job_id]
        ranks: list[list[int]] = [[] for _ in range(topology.num_racks)]
        for dp in range(job.dp_degree):
            ranks[placement.locate(
                (job_id, job.worker_index(stage, dp, 0))).rack].append(dp)
        leaving = [dp for t in range(topology.num_racks)
                   for dp in ranks[t][:max(0, row0[t] - row[t])]]
        arriving = [t for t in range(topology.num_racks)
                    for _ in range(row[t] - row0[t])]
        for dp, dst_rack in zip(leaving, arriving, strict=True):
            workers = [(job_id, job.worker_index(stage, dp, tp))
                       for tp in range(job.tp_degree)]
            src = placement.locate(workers[0])
            free[src.rack][src.host] += job.tp_degree
            unit_moves.append((job.tp_degree, workers, dst_rack))

    moves: list[WorkerMove] = []
    for unit_size, workers, dst_rack in sorted(
            unit_moves, key=lambda m: (-m[0], m[1][0])):
        fitting = [(free[dst_rack][h], h)
                   for h in range(topology.hosts_per_rack)
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
    stats: SolverStats


# Why a check that found a violation returned no plan.
SKIP_REASONS = ("not_optimal", "infeasible", "budget", "timeout",
                "resolution")
_FAILURE_REASON = {InfeasibleError: "infeasible",
                   MoveBudgetExceeded: "budget", SolverTimeout: "timeout",
                   ResolutionError: "resolution"}


class DefragController:
    """Plans migration batches whenever the placement changes.

    ``outcomes`` counts the checks that found a violation, by outcome:
    ``applied`` (a decision was returned) or one of ``SKIP_REASONS``:
    the plan was not proven optimal, the instance was infeasible, over
    the move cap or out of solver time, or the plan could not be packed
    onto hosts.
    """

    def __init__(self, placement: Placement, config: ControllerConfig,
                 enabled: bool = True):
        self.placement = placement
        self.config = config
        self.enabled = enabled
        self.threshold = (float(placement.topology.uplinks_per_tor)
                          if config.threshold is None else config.threshold)
        self.outcomes: Counter[str] = Counter(
            dict.fromkeys(("applied",) + SKIP_REASONS, 0))

    @property
    def skipped_infeasible(self) -> int:
        """Checks that left a violation standing, for every reason."""
        return sum(self.outcomes[reason] for reason in SKIP_REASONS)

    def check(self, stages: StageRows | None = None
              ) -> DefragDecision | None:
        """Return the migration batch restoring the threshold, if needed.
        ``stages``, the placement's current ``stage_rows``, saves
        building them again."""
        if not self.enabled:
            return None
        instance = build_instance(self.placement, self.threshold,
                                  stages=stages)
        if instance is None:
            return None
        try:
            plan = solve(instance,
                         time_limit=self.config.solver_time_limit,
                         max_moves=self.config.max_moves)
            if not plan.stats.optimal:
                # Only proven-minimal plans are worth the disruption; a
                # timed-out incumbent is a wholesale re-placement. Leave
                # the violation standing and retry on the next change.
                log.debug("defrag skipped: solver hit its time limit")
                self.outcomes["not_optimal"] += 1
                return None
            moves = resolve_plan(self.placement, instance, plan)
        except (InfeasibleError, MoveBudgetExceeded, ResolutionError,
                SolverTimeout) as exc:
            # No acceptable plan exists right now (or it cannot be
            # packed); leave the violation standing until churn helps.
            log.debug("defrag skipped: %s", exc)
            self.outcomes[_FAILURE_REASON[type(exc)]] += 1
            return None
        self.outcomes["applied"] += 1
        return DefragDecision(moves=moves, stats=plan.stats)
