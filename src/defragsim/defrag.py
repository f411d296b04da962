"""Minimum-migration defragmentation solver.

Given worker counts per (job, rack), find the closest placement (in
worker moves, half the l1 distance between placements) under three
constraints: every job stays fully assigned, rack capacities hold, and
the ring-weighted count of fragmented jobs present on each rack stays at
or below the threshold.

The solver is an exact branch-and-bound: depth-first over jobs, each
branching over candidate placement rows ordered by per-job move count,
wrapped in iterative deepening on the total move budget. A greedy
re-unification pass supplies an incumbent that caps the deepening range
and serves as the fallback under a time limit. A brute-force enumerator
over all rack-level placements validates optimality on small instances.

Jobs are placed in atomic units of ``unit_size`` workers (the TP group,
which never splits across hosts); pure DP jobs have unit_size 1. A
fragmented job contributes ``ring_weight`` (its TP degree) to every rack
it spans; ``ring_loads`` is the one computation of that per-rack load,
shared by the solver, the controller and the fragmentation metric.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from dataclasses import dataclass
from typing import Hashable, Sequence


class InfeasibleError(Exception):
    """The instance admits no placement within the threshold."""


class MoveBudgetExceeded(Exception):
    """Feasible plans may exist, but none within the move budget."""


class SolverTimeout(Exception):
    """The time limit expired before any acceptable plan was found."""


class OracleTooLargeError(Exception):
    """Instance exceeds the brute-force enumeration guard."""


@dataclass(frozen=True)
class SolverJob:
    key: Hashable
    units: int
    unit_size: int = 1
    ring_weight: int = 1

    @property
    def workers(self) -> int:
        return self.units * self.unit_size


@dataclass(frozen=True)
class SolverInstance:
    num_racks: int
    capacities: tuple[int, ...]  # per-rack worker slots usable by these jobs
    threshold: float
    jobs: tuple[SolverJob, ...]
    initial: tuple[tuple[int, ...], ...]  # units per (job, rack)
    # Ring load contributed by fragmented jobs outside the instance.
    base_load: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.base_load:
            object.__setattr__(self, "base_load", (0,) * self.num_racks)
        if len(self.capacities) != self.num_racks:
            raise ValueError("capacity vector length mismatch")
        if len(self.base_load) != self.num_racks:
            raise ValueError("base_load vector length mismatch")
        for job, row in zip(self.jobs, self.initial):
            if len(row) != self.num_racks:
                raise ValueError("initial row length mismatch")
            if sum(row) != job.units:
                raise ValueError(f"job {job.key}: initial row does not sum "
                                 f"to its unit count")

    @classmethod
    def uniform(cls, capacity: int, threshold: float,
                jobs: Sequence[SolverJob],
                initial: Sequence[Sequence[int]]) -> "SolverInstance":
        num_racks = len(initial[0]) if initial else 0
        return cls(num_racks=num_racks,
                   capacities=tuple([capacity] * num_racks),
                   threshold=threshold,
                   jobs=tuple(jobs),
                   initial=tuple(tuple(row) for row in initial))


@dataclass(frozen=True)
class SolverStats:
    move_count: int
    solve_time: float
    nodes_explored: int
    optimal: bool


@dataclass(frozen=True)
class RackMove:
    key: Hashable
    workers: int
    from_rack: int
    to_rack: int


@dataclass(frozen=True)
class MigrationPlan:
    target: tuple[tuple[int, ...], ...]  # units per (job, rack)
    moves: tuple[RackMove, ...]
    move_count: int  # total workers moved
    stats: SolverStats


def is_fragmented(row: Sequence[int]) -> bool:
    """Whether a row of units per rack spans two or more racks."""
    return sum(1 for v in row if v > 0) >= 2


def ring_loads(jobs: Sequence[SolverJob], rows: Sequence[Sequence[int]],
               base: Sequence[int]) -> list[int]:
    """Ring load per rack: ``base`` plus the ring weight of every
    fragmented job on each rack it spans. A fragmented ring sends one
    cross-rack flow out of every rack it spans."""
    loads = list(base)
    for job, row in zip(jobs, rows):
        if is_fragmented(row):
            for t, v in enumerate(row):
                if v:
                    loads[t] += job.ring_weight
    return loads


def _capacity_ok(instance: SolverInstance,
                 placement: Sequence[Sequence[int]]) -> bool:
    return all(f >= 0 for f in _free_capacity(instance, placement))


def worker_moves(instance: SolverInstance,
                 placement: Sequence[Sequence[int]]) -> int:
    """Half the l1 distance from the initial placement, in workers."""
    total = 0
    for job, row0, row in zip(instance.jobs, instance.initial, placement):
        total += job.unit_size * sum(abs(a - b) for a, b in zip(row0, row))
    return total // 2


# -- candidate row generation -------------------------------------------


def _budgeted_splits(k: int, racks: Sequence[int], limits: Sequence[int],
                     slacks: Sequence[int], unit: int, budget: int):
    """All ways to distribute k units over the given racks, placing at
    most limits[t] units on rack t. Units placed beyond a rack's slack
    (in workers) draw from a shared eviction budget. Free capacity is
    globally conserved, so additions beyond current slack are only
    possible if later moves evict someone -- and those moves are
    bounded."""
    if k == 0:
        yield ()
        return
    if not racks:
        return
    head, tail = racks[0], racks[1:]
    for here in range(min(k, limits[head]), -1, -1):
        over = max(0, here * unit - slacks[head])
        if over > budget:
            continue
        for rest in _budgeted_splits(k - here, tail, limits, slacks, unit,
                                     budget - over):
            if here:
                yield ((head, here),) + rest
            else:
                yield rest


def _candidate_rows(row0: tuple[int, ...], k: int,
                    add_limits: Sequence[int], slacks: Sequence[int],
                    unit: int, budget: int):
    """All rows at exactly k unit-moves from row0 (no rack both gives and
    receives, which keeps the move count exact and the rows unique).
    ``add_limits[t]`` caps the units rack t can receive; beyond-slack
    additions are bounded by the shared eviction ``budget``, so
    generation collapses instead of exploding on a full cluster."""
    num_racks = len(row0)
    support = [t for t in range(num_racks) if row0[t] > 0]
    # a rack never gives more than it holds, so removals never draw
    # on the (zero) budget
    for removal in _budgeted_splits(k, support, row0,
                                    [unit * v for v in row0], unit, 0):
        removed = list(row0)
        for t, cnt in removal:
            removed[t] -= cnt
        sources = {t for t, _ in removal}
        targets = [t for t in range(num_racks)
                   if t not in sources and add_limits[t] > 0]
        for addition in _budgeted_splits(k, targets, add_limits, slacks,
                                         unit, budget):
            row = list(removed)
            for t, cnt in addition:
                row[t] += cnt
            yield tuple(row)


# -- greedy incumbent ----------------------------------------------------


def _greedy_incumbent(instance: SolverInstance
                      ) -> list[tuple[int, ...]] | None:
    """Re-unify violating jobs onto single racks, smallest first."""
    placement = [list(row) for row in instance.initial]
    jobs = instance.jobs
    for _ in range(4 * len(jobs) + 4):
        violating = _violating_racks(instance, placement)
        if not violating:
            return [tuple(row) for row in placement]
        free = _free_capacity(instance, placement)
        candidates = [i for i, row in enumerate(placement)
                      if is_fragmented(row)
                      and any(row[t] > 0 for t in violating)]
        if not candidates:
            return None
        moved = False
        for i in sorted(candidates, key=lambda i: jobs[i].workers):
            job = jobs[i]
            row = placement[i]
            # prefer gathering where the job already has the most workers
            order = sorted(range(instance.num_racks),
                           key=lambda t: (-row[t], t))
            for t in order:
                need = (job.units - row[t]) * job.unit_size
                if free[t] >= need:
                    placement[i] = [0] * instance.num_racks
                    placement[i][t] = job.units
                    moved = True
                    break
            if moved:
                break
        if not moved:
            return None
    return None


def _sequential_incumbent(instance: SolverInstance
                          ) -> list[tuple[int, ...]] | None:
    """Feasibility witness: re-place every job by filling racks left to
    right. With unit racks this bounds fragmented jobs at 2 per rack, so
    it succeeds whenever the threshold is at least twice the largest ring
    weight; the result is validated before use either way."""
    free = list(instance.capacities)
    placement = []
    for job in instance.jobs:
        row = [0] * instance.num_racks
        remaining = job.units
        for t in range(instance.num_racks):
            take = min(remaining, free[t] // job.unit_size)
            if take:
                row[t] = take
                free[t] -= take * job.unit_size
                remaining -= take
            if remaining == 0:
                break
        if remaining:
            return None
        placement.append(tuple(row))
    if (_capacity_ok(instance, placement)
            and not _violating_racks(instance, placement)):
        return placement
    return None


def _repair_incumbent(instance: SolverInstance
                      ) -> list[tuple[int, ...]] | None:
    """Cheap local repair: while a rack is over threshold, apply the
    cheapest of two fixes to one fragmented job present there -- vacate
    that rack into the job's other racks (never adds ring load anywhere)
    or consolidate the whole job onto a single rack. Usually lands within
    a few unit moves of the optimum, giving the search a tight bound."""
    jobs = instance.jobs
    num_racks = instance.num_racks
    placement = [list(row) for row in instance.initial]
    free = _free_capacity(instance, placement)

    def vacate(i: int, t: int) -> None:
        job = jobs[i]
        move = placement[i][t]
        placement[i][t] = 0
        free[t] += move * job.unit_size
        others = sorted((u for u in range(num_racks)
                         if u != t and placement[i][u] > 0),
                        key=lambda u: (-free[u], u))
        for u in others:
            take = min(move, free[u] // job.unit_size)
            placement[i][u] += take
            free[u] -= take * job.unit_size
            move -= take
            if move == 0:
                return
        raise AssertionError("vacate target capacity vanished")

    def consolidate(i: int, u: int) -> None:
        job = jobs[i]
        for t, v in enumerate(placement[i]):
            free[t] += job.unit_size * v
        placement[i] = [0] * num_racks
        placement[i][u] = job.units
        free[u] -= job.workers

    for _ in range(4 * len(jobs) + 4):
        violating = _violating_racks(instance, placement)
        if not violating:
            rows = [tuple(row) for row in placement]
            return rows if _capacity_ok(instance, rows) else None
        t = min(violating)
        best: tuple[int, int, int, str] | None = None  # cost, i, arg, kind
        for i, row in enumerate(placement):
            job = jobs[i]
            if row[t] == 0 or not is_fragmented(row):
                continue
            room = sum(free[u] // job.unit_size
                       for u in range(num_racks)
                       if u != t and row[u] > 0)
            if room >= row[t]:
                cost = row[t] * job.unit_size
                if best is None or cost < best[0]:
                    best = (cost, i, t, "vacate")
            for u in range(num_racks):
                need = (job.units - row[u]) * job.unit_size
                if free[u] >= need:
                    cost = need
                    if best is None or cost < best[0]:
                        best = (cost, i, u, "consolidate")
        if best is None:
            return None
        _, i, arg, kind = best
        if kind == "vacate":
            vacate(i, arg)
        else:
            consolidate(i, arg)
    return None


def _violating_racks(instance, placement) -> set[int]:
    return {t for t, load in enumerate(
                ring_loads(instance.jobs, placement, instance.base_load))
            if load > instance.threshold}


def _free_capacity(instance, placement) -> list[int]:
    free = list(instance.capacities)
    for job, row in zip(instance.jobs, placement):
        for t, v in enumerate(row):
            free[t] -= job.unit_size * v
    return free


# -- exact branch and bound ---------------------------------------------


class _Search:
    def __init__(self, instance: SolverInstance, deadline: float | None):
        self.instance = instance
        self.deadline = deadline
        self.nodes = 0
        self.timed_out = False
        # Fragmented jobs and large jobs constrain the search most; fix
        # them first so infeasibility surfaces high in the tree.
        self.order = sorted(
            range(len(instance.jobs)),
            key=lambda i: (not is_fragmented(instance.initial[i]),
                           -instance.jobs[i].workers, i))
        # workers still to place at each depth, for an aggregate capacity prune
        self.suffix_workers = [0] * (len(self.order) + 1)
        for d in range(len(self.order) - 1, -1, -1):
            self.suffix_workers[d] = (self.suffix_workers[d + 1]
                                      + instance.jobs[self.order[d]].workers)
        # ring load of the jobs still unplaced at each depth, kept at their
        # initial rows, and per rack the sorted (cheapest own change, ring
        # weight) of each fragmented one there, for _remaining_lb
        self.rest_loads = [[0] * instance.num_racks]
        self.rest_options = [[[] for _ in range(instance.num_racks)]]
        for i in reversed(self.order):
            job, row = instance.jobs[i], instance.initial[i]
            self.rest_loads.append(
                ring_loads([job], [row], self.rest_loads[-1]))
            options = self.rest_options[-1]
            if is_fragmented(row):
                options = [list(o) for o in options]
                for t, v in enumerate(row):
                    if v:
                        bisect.insort(options[t], (
                            job.unit_size * min(v, job.units - v),
                            job.ring_weight))
            self.rest_options.append(options)
        self.rest_loads.reverse()
        self.rest_options.reverse()

    def run(self, incumbent: list[tuple[int, ...]] | None,
            floor: int, cap: int | None = None) -> None:
        """Anytime branch-and-bound: depth-first over jobs, rows tried in
        increasing per-job move count, every branch pruned against the
        best solution found so far. Exhausting the tree proves
        optimality; a timeout leaves the current best standing. With a
        move ``cap``, only plans at or below it are considered -- the
        space shrinks drastically and "no small plan exists" is proven
        fast."""
        self.best = incumbent
        self.best_cost = (worker_moves(self.instance, incumbent)
                          if incumbent is not None else None)
        if (cap is not None and self.best_cost is not None
                and self.best_cost > cap):
            self.best = None
            self.best_cost = None
        self.cap = cap
        self.floor = floor
        if self.best_cost is not None and self.best_cost <= floor:
            return  # incumbent already meets the lower bound
        free = _free_capacity(self.instance,
                              [[0] * self.instance.num_racks
                               for _ in self.instance.jobs])
        frag = list(self.instance.base_load)
        assignment: list[tuple[int, ...] | None] = [None] * len(
            self.instance.jobs)
        # slack under "everything sits at its current row": placed jobs at
        # their assigned rows, unplaced ones at their initial rows
        self.slack = _free_capacity(self.instance, self.instance.initial)
        self._dfs(0, 0, free, frag, assignment)

    def _bound(self) -> int | None:
        """Exclusive upper bound on acceptable plan cost."""
        if self.best_cost is not None:
            return self.best_cost
        if self.cap is not None:
            return self.cap + 1
        return None

    def _remaining_lb(self, depth: int, frag: list[int]) -> int:
        """Admissible bound on the cost the unplaced jobs must still pay.

        If keeping every unplaced job at its initial row would push a
        rack over threshold, at least ceil(excess / heaviest weight) of
        the fragmented jobs there must change, each paying at least its
        cheapest own change (vacate the rack or become whole). Racks may
        share fixes, so the bound is the max over racks, not the sum."""
        threshold = self.instance.threshold
        best = 0
        for t, (load, options) in enumerate(zip(self.rest_loads[depth],
                                                self.rest_options[depth])):
            excess = frag[t] + load - threshold
            if excess <= 0:
                continue
            max_weight = max(w for _, w in options)
            k_min = math.ceil(excess / max_weight)
            best = max(best, sum(c for c, _ in options[:k_min]))
        return best

    def _dfs(self, depth, cost, free, frag, assignment):
        self.nodes += 1
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
        if self.timed_out:
            return
        if depth == len(self.order):
            self.best = [row for row in assignment]
            self.best_cost = cost
            return
        if sum(free) < self.suffix_workers[depth]:
            return
        node_bound = self._bound()
        if (node_bound is not None
                and cost + self._remaining_lb(depth, frag) >= node_bound):
            return
        job_idx = self.order[depth]
        job = self.instance.jobs[job_idx]
        row0 = self.instance.initial[job_idx]
        k = 0
        while k <= job.units:
            bound = self._bound()
            if bound is not None and cost + k * job.unit_size >= bound:
                return  # deeper jobs only cost more; later k too
            if bound is not None:
                # a rack can absorb its current slack plus at most the
                # workers the rest of the move budget could still evict
                b_rem = bound - 1 - cost - k * job.unit_size
            else:
                b_rem = self.suffix_workers[depth + 1]
            slacks = [max(0, s) for s in self.slack]
            add_limits = [
                min(f // job.unit_size - row0[t],
                    (slacks[t] + b_rem) // job.unit_size)
                for t, f in enumerate(free)]
            for row in _candidate_rows(row0, k, add_limits, slacks,
                                       job.unit_size, b_rem):
                self.nodes += 1
                if self.deadline is not None and self.nodes % 1024 == 0:
                    if time.monotonic() > self.deadline:
                        self.timed_out = True
                        return
                if any(job.unit_size * row[t] > free[t]
                       for t in range(len(row)) if row[t]):
                    continue
                fragmented = is_fragmented(row)
                if fragmented:
                    if any(frag[t] + job.ring_weight > self.instance.threshold
                           for t in range(len(row)) if row[t]):
                        continue
                for t, v in enumerate(row):
                    free[t] -= job.unit_size * v
                    self.slack[t] += job.unit_size * (row0[t] - v)
                    if fragmented and v:
                        frag[t] += job.ring_weight
                assignment[job_idx] = row
                self._dfs(depth + 1, cost + k * job.unit_size, free, frag,
                          assignment)
                for t, v in enumerate(row):
                    free[t] += job.unit_size * v
                    self.slack[t] -= job.unit_size * (row0[t] - v)
                    if fragmented and v:
                        frag[t] -= job.ring_weight
                assignment[job_idx] = None
                if self.timed_out:
                    return
                if self.best_cost is not None and self.best_cost <= self.floor:
                    return  # proven optimal by the lower bound
            if self.timed_out:
                return
            k += 1


def solve(instance: SolverInstance,
          time_limit: float | None = 30.0,
          max_moves: int | None = None) -> MigrationPlan:
    """Exact minimum-move plan meeting the fragmentation threshold.

    Raises InfeasibleError when no placement satisfies the constraints:
    always when ``base_load`` alone exceeds the threshold on some rack,
    never when threshold >= 2 * max ring weight, the base load is zero
    and total demand fits the cluster. Under the time limit, returns the
    best incumbent with ``stats.optimal`` False.

    With ``max_moves``, only plans at or below that many worker moves
    are considered; MoveBudgetExceeded is raised when none exists. The
    restricted search is far cheaper than the unbounded one, so callers
    that would never apply a large plan anyway should always set a cap.
    """
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit

    if any(load > instance.threshold for load in instance.base_load):
        raise InfeasibleError("the frozen ring load alone exceeds the "
                              "threshold")
    if (_capacity_ok(instance, instance.initial)
            and not _violating_racks(instance, instance.initial)):
        stats = SolverStats(0, time.monotonic() - start, 0, True)
        return MigrationPlan(instance.initial, (), 0, stats)

    candidates = [c for c in (_repair_incumbent(instance),
                              _greedy_incumbent(instance),
                              _sequential_incumbent(instance))
                  if c is not None]
    incumbent = min(candidates, key=lambda c: worker_moves(instance, c),
                    default=None)

    search = _Search(instance, deadline)
    search.run(incumbent, search._remaining_lb(0, list(instance.base_load)),
               cap=max_moves)

    elapsed = time.monotonic() - start
    if search.best is None:
        if search.timed_out:
            raise SolverTimeout("time limit hit before any plan was found")
        if max_moves is not None:
            feasible = incumbent is not None
            raise MoveBudgetExceeded(
                f"no plan within {max_moves} worker moves"
                + (" (larger plans exist)" if feasible else ""))
        raise InfeasibleError("no placement satisfies the threshold")
    moves = search.best_cost
    stats = SolverStats(moves, elapsed, search.nodes,
                        not search.timed_out)
    return _build_plan(instance, search.best, stats)


def _build_plan(instance: SolverInstance,
                placement: Sequence[tuple[int, ...]],
                stats: SolverStats) -> MigrationPlan:
    moves = []
    for job, row0, row in zip(instance.jobs, instance.initial, placement):
        deltas = [a - b for a, b in zip(row, row0)]
        givers = [(t, -d) for t, d in enumerate(deltas) if d < 0]
        takers = [(t, d) for t, d in enumerate(deltas) if d > 0]
        gi = 0
        for to_rack, need in takers:
            while need > 0:
                from_rack, avail = givers[gi]
                take = min(need, avail)
                moves.append(RackMove(job.key, take * job.unit_size,
                                      from_rack, to_rack))
                need -= take
                avail -= take
                if avail == 0:
                    gi += 1
                else:
                    givers[gi] = (from_rack, avail)
    return MigrationPlan(tuple(tuple(row) for row in placement),
                         tuple(moves), stats.move_count, stats)


# -- brute-force oracle --------------------------------------------------


def _all_rows(units: int, num_racks: int, max_units_per_rack: int
              ) -> list[tuple[int, ...]]:
    rows = []

    def rec(prefix, remaining, racks_left):
        if racks_left == 0:
            if remaining == 0:
                rows.append(tuple(prefix))
            return
        for v in range(min(remaining, max_units_per_rack), -1, -1):
            rec(prefix + [v], remaining - v, racks_left - 1)

    rec([], units, num_racks)
    return rows


def brute_force_min_moves(instance: SolverInstance,
                          enumeration_limit: int = 10 ** 9) -> int:
    """Exhaustive minimum over all rack-level placements.

    Deliberately simple: enumerate every capacity-bounded row per job,
    prune only on partial capacity and accumulated moves, check the
    fragmentation constraint at the leaves.
    """
    rows_per_job = []
    total = 1
    for job in instance.jobs:
        per_rack = max(instance.capacities) // job.unit_size
        rows = _all_rows(job.units, instance.num_racks, per_rack)
        rows_per_job.append(rows)
        total *= max(1, len(rows))
        if total > enumeration_limit:
            raise OracleTooLargeError(f"~{total} placements to enumerate")

    best = None
    num_jobs = len(instance.jobs)

    def rec(depth, used, moves, chosen):
        nonlocal best
        if best is not None and moves >= best:
            return
        if depth == num_jobs:
            if not _violating_racks(instance, chosen):
                best = moves
            return
        job = instance.jobs[depth]
        row0 = instance.initial[depth]
        for row in rows_per_job[depth]:
            ok = True
            for t, v in enumerate(row):
                if used[t] + job.unit_size * v > instance.capacities[t]:
                    ok = False
                    break
            if not ok:
                continue
            row_moves = job.unit_size * sum(
                abs(a - b) for a, b in zip(row, row0)) // 2
            for t, v in enumerate(row):
                used[t] += job.unit_size * v
            chosen.append(row)
            rec(depth + 1, used, moves + row_moves, chosen)
            chosen.pop()
            for t, v in enumerate(row):
                used[t] -= job.unit_size * v

    rec(0, [0] * instance.num_racks, 0, [])
    if best is None:
        raise InfeasibleError("no feasible placement exists")
    return best


def save_instance(instance: SolverInstance, path: str) -> None:
    """Write a solver instance as JSON for offline oracle runs."""
    data = {
        "num_racks": instance.num_racks,
        "capacities": list(instance.capacities),
        "threshold": instance.threshold,
        "base_load": list(instance.base_load),
        "jobs": [
            {"key": list(j.key) if isinstance(j.key, tuple) else j.key,
             "units": j.units, "unit_size": j.unit_size,
             "ring_weight": j.ring_weight, "initial": list(row)}
            for j, row in zip(instance.jobs, instance.initial)],
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def load_instance(path: str) -> SolverInstance:
    """Read a solver instance written by save_instance."""
    with open(path) as f:
        data = json.load(f)
    jobs = []
    initial = []
    for rec in data["jobs"]:
        key = rec["key"]
        jobs.append(SolverJob(
            key=tuple(key) if isinstance(key, list) else key,
            units=rec["units"], unit_size=rec.get("unit_size", 1),
            ring_weight=rec.get("ring_weight", 1)))
        initial.append(tuple(rec["initial"]))
    return SolverInstance(
        num_racks=data["num_racks"],
        capacities=tuple(data["capacities"]),
        threshold=data["threshold"],
        jobs=tuple(jobs),
        initial=tuple(initial),
        base_load=tuple(data.get("base_load", ())),
    )
