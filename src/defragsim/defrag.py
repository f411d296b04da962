"""Minimum-migration defragmentation solver.

Given worker counts per (job, rack), find the closest placement (in
worker moves, half the l1 distance between placements) under three
constraints: every job stays fully assigned, rack capacities hold, and
the ring-weighted count of fragmented jobs present on each rack stays at
or below the threshold.

The solver is an exact branch-and-bound: depth-first over jobs, each
branching over candidate placement rows in increasing per-job move
count, every node pruned against one integer bound that every plan
still acceptable costs less than. The bound starts one above the move
cap; with no cap, one above the workers the jobs hold, since no plan
moves more. One local repair supplies the first incumbent: while a rack
is over threshold it applies the cheaper of two fixes to a fragmented
job there, vacating that rack or consolidating the job onto one rack,
and updates the ring loads only on the fixed job's racks. An incumbent
within the cap lowers the bound to its cost, as does every plan the
search accepts, and the incumbent is the fallback under a time limit. A
brute-force enumerator over all rack-level placements validates
optimality on small instances.

A node's bound on the cost still to pay sums, over racks the unplaced
jobs leave over threshold, the cheapest fixes each rack needs, taking
only racks that share no unplaced job. Separate violations thus pay for
separate fixes.

A candidate row at k unit-moves is a removal of k units from the job's
initial row plus an addition of k units elsewhere. Each node's work is
kept small by what is built once: per depth (all in one walk), a table
of the racks holding unplaced fragmented jobs, from which the node bound
is one pass, and a sort only when two racks or more are in excess; per
search, the removals of each (job, k); per node, the racks a fragmented
row may not touch and each rack's room. An addition never overflows a rack's room, so
capacity is checked once per removal, and the splitter leaves out the
units a hot rack would take, so no row is built that the ring check
rejects. Additions are generated one at a time as the search asks for
them, so a node that stops (on a better plan, the floor or the clock)
builds no more rows. A node first bounds the child of a row that adds
no ring load, which bounds every child; it stops at the first k where
that bound and the k moves reach the best plan's cost, before building
a row at that k. Each candidate row is bounded in its parent before
the search descends: that bound reads only the ring loads, so a node
computes it once per fragmented support (the racks a split row
touches, as a bitmask), and a row it prunes is never applied. The root
and every candidate row built is one node. The root's floor is worked
out from the racks in excess alone, before any search is built, so a
solve whose incumbent meets it builds no search at all. At a floor of
1 an incumbent that misses it leaves the search to find its first
one-move plan; a direct scan of the one-unit moves, in the search's own
order, finds that plan without building a search. One walk of the
initial rows gives the fragmented flags, ring loads and free slots that
every part of a solve reads, and the job order is sorted once.

Jobs are placed in atomic units of ``unit_size`` workers (the TP group,
which never splits across hosts); pure DP jobs have unit_size 1. A
fragmented job contributes ``ring_weight`` (its TP degree) to every rack
it spans; ``ring_walk`` is the one statement of that rule.
``fragmentation.stage_rows`` calls it once per placement change, for the
metric and the controller, and a solve once, on its initial rows.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from operator import sub
from typing import Hashable, Iterator, Sequence


class SolveError(Exception):
    """A solve that returns no plan. ``nodes_explored`` counts the search
    nodes it bounded, as ``SolverStats`` does: 0 when it raised before
    any search."""

    def __init__(self, message: str = "", nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


class InfeasibleError(SolveError):
    """The instance admits no placement within the threshold."""


class MoveBudgetExceeded(SolveError):
    """Feasible plans may exist, but none within the move budget."""


class SolverTimeout(SolveError):
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
        if len(self.initial) != len(self.jobs):
            raise ValueError("initial needs one row per job")
        for job, row in zip(self.jobs, self.initial):
            if len(row) != self.num_racks:
                raise ValueError("initial row length mismatch")
            if sum(row) != job.units:
                raise ValueError(f"job {job.key}: initial row does not sum "
                                 f"to its unit count")


@dataclass(frozen=True)
class SolverStats:
    move_count: int
    solve_time: float
    nodes_explored: int
    optimal: bool


@dataclass(frozen=True)
class MigrationPlan:
    target: tuple[tuple[int, ...], ...]  # units per (job, rack)
    stats: SolverStats

    @property
    def move_count(self) -> int:
        """Total workers moved."""
        return self.stats.move_count


def is_fragmented(row: Sequence[int]) -> bool:
    """Whether a row of units per rack spans two or more racks."""
    return len(row) - row.count(0) >= 2


def ring_walk(jobs: Sequence[SolverJob], rows: Sequence[Sequence[int]],
              base: Sequence[int]) -> tuple[list[bool], list[int]]:
    """Whether each row is fragmented, and the ring load per rack:
    ``base`` plus the ring weight of every fragmented row on each rack
    it spans. A fragmented ring sends one cross-rack flow out of every
    rack it spans. One loop tests each row once and adds its weight as
    it goes."""
    fragmented = []
    loads = list(base)
    for job, row in zip(jobs, rows):
        split = is_fragmented(row)
        fragmented.append(split)
        if split:
            weight = job.ring_weight
            t = 0  # a counter, not enumerate: ~8% faster on 8-rack rows
            for v in row:
                if v:
                    loads[t] += weight
                t += 1
    return fragmented, loads


def worker_moves(instance: SolverInstance,
                 placement: Sequence[Sequence[int]]) -> int:
    """Half the l1 distance from the initial placement, in workers."""
    total = 0
    for job, row0, row in zip(instance.jobs, instance.initial, placement):
        if row != row0:
            total += job.unit_size * sum(map(abs, map(sub, row0, row)))
    return total // 2


# -- candidate row generation -------------------------------------------


def _splits(k: int, racks: Sequence[int], limits: Sequence[int],
            hot: Sequence[bool] | None = None, whole: bool = False,
            start: int = 0) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield all ways to distribute k units over ``racks[start:]``,
    placing at most limits[t] units on rack t, as ``((rack, units), ...)``
    tuples ordered by decreasing units on the first rack, then on the
    next. Each is built only when the caller asks for it, so a caller
    that stops early builds no more.

    A rack flagged in ``hot`` takes no units, except all k when
    ``whole`` and no earlier rack took any: the ring check accepts a
    row on a hot rack only if the row is whole there. Leaving out the
    choices it rejects keeps the order of the rest."""
    if k == 0:
        yield ()
        return
    if start == len(racks):
        return
    head = racks[start]
    if hot is not None and hot[head]:
        if whole and k <= limits[head]:
            yield ((head, k),)
        yield from _splits(k, racks, limits, hot, whole, start + 1)
        return
    if start == len(racks) - 1:  # the last rack takes all k or nothing fits
        if k <= limits[head]:
            yield ((head, k),)
        return
    for here in range(min(k, limits[head]), -1, -1):
        rest = _splits(k - here, racks, limits, hot, whole and not here,
                       start + 1)
        if here:
            item = ((head, here),)
            for r in rest:
                yield item + r
        else:
            yield from rest


def _additions(k: int, sources: set[int], kept: Sequence[int],
               limits: Sequence[int], hot: Sequence[bool]
               ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the ways to add k units back to a removal's row that give a
    row the ring check accepts, in ``_splits`` order and built as asked.
    ``sources`` are the racks the k units left and ``kept`` the racks
    still holding units; an addition goes to racks with a positive limit
    outside ``sources``, so no rack both gives and receives and every row
    is unique.

    A fragmented row may touch no hot rack. A removal that keeps units
    on two racks or more makes every row fragmented, so a hot one among
    them yields nothing, and a lone hot rack yields only the row whole
    on it. Otherwise hot racks take no units, unless the addition is
    the whole row (k is all the job's units) and puts it on one of
    them."""
    for t in kept:
        if hot[t]:
            if len(kept) == 1 and t not in sources:
                yield from _splits(k, kept, limits)
            return
    targets = [t for t, limit in enumerate(limits)
               if limit > 0 and t not in sources]
    yield from _splits(k, targets, limits, hot, not kept)


# -- the initial rows ----------------------------------------------------

# Each rack's free slots and ring load under the initial rows, and
# whether each initial row is fragmented.
_Walk = tuple[list[int], list[int], list[bool]]


def _initial_walk(instance: SolverInstance) -> _Walk:
    """The initial rows' ``ring_walk`` over the base load, and each
    rack's free slots under them: the one walk a solve reads."""
    split, loads = ring_walk(instance.jobs, instance.initial,
                             instance.base_load)
    free = list(instance.capacities)
    for job, row in zip(instance.jobs, instance.initial):
        unit = job.unit_size
        for t, v in enumerate(row):
            if v:
                free[t] -= unit * v
    return free, loads, split


def _job_order(instance: SolverInstance, split: Sequence[bool]
               ) -> list[int]:
    """The search's job order, depth 0 first, from the initial rows'
    fragmented flags ``split``. Fragmented jobs and large jobs constrain
    the search most; fixing them first surfaces infeasibility high in
    the tree."""
    jobs = instance.jobs
    return sorted(range(len(jobs)),
                  key=lambda i: (not split[i], -jobs[i].workers, i))


def _own_change(job: SolverJob, v: int) -> int:
    """The workers a fragmented job with ``v`` units on a rack moves at
    least to stop loading that rack: vacate it or gather there."""
    units = job.units
    return job.unit_size * (v if 2 * v <= units else units - v)


# -- repair incumbent ----------------------------------------------------


def _repair_incumbent(instance: SolverInstance, walk: _Walk
                      ) -> list[tuple[int, ...]] | None:
    """Cheap local repair: while a rack is over threshold, apply the
    cheapest of two fixes to one fragmented job present there -- vacate
    that rack into the job's other racks (never adds ring load anywhere)
    or consolidate the whole job onto a single rack. Usually lands within
    a few unit moves of the optimum, giving the search a tight bound.
    It starts from copies of the initial walk's free slots, ring loads
    and fragmented flags, then a fix moves only the fixed job's share
    and tests only its row."""
    jobs = instance.jobs
    num_racks = instance.num_racks
    threshold = instance.threshold
    placement = [list(row) for row in instance.initial]
    free, loads, split = list(walk[0]), list(walk[1]), list(walk[2])

    for _ in range(4 * len(jobs) + 4):
        for t, load in enumerate(loads):
            if load > threshold:
                break
        else:
            if min(free, default=0) < 0:
                return None
            return [tuple(row) for row in placement]
        best: tuple[int, int, str] | None = None  # i, arg, kind
        best_cost = 0
        for i, row in enumerate(placement):
            here = row[t]
            if here == 0 or not split[i]:
                continue
            job = jobs[i]
            unit, units = job.unit_size, job.units
            room = 0
            for u, v in enumerate(row):
                if v and u != t:
                    room += free[u] // unit
            if room >= here and (best is None or here * unit < best_cost):
                best, best_cost = (i, t, "vacate"), here * unit
            for u, v in enumerate(row):
                need = (units - v) * unit
                if free[u] >= need and (best is None or need < best_cost):
                    best, best_cost = (i, u, "consolidate"), need
        if best is None:
            return None
        i, arg, kind = best
        job = jobs[i]
        unit, weight = job.unit_size, job.ring_weight
        row = placement[i]
        for u, v in enumerate(row):  # the fixed row is fragmented
            if v:
                loads[u] -= weight
        if kind == "vacate":
            # into the job's other racks, the freest first
            move = row[arg]
            row[arg] = 0
            free[arg] += move * unit
            for u in sorted([u for u, v in enumerate(row) if v],
                            key=lambda u: (-free[u], u)):
                take = min(move, free[u] // unit)
                row[u] += take
                free[u] -= take * unit
                move -= take
                if move == 0:
                    break
            else:
                raise AssertionError("vacate target capacity vanished")
        else:  # consolidate onto rack arg
            for u, v in enumerate(row):
                free[u] += unit * v
            row = placement[i] = [0] * num_racks
            row[arg] = job.units
            free[arg] -= job.units * unit
        split[i] = is_fragmented(row)
        if split[i]:
            for u, v in enumerate(row):
                if v:
                    loads[u] += weight
    return None


# -- exact branch and bound ---------------------------------------------


def _root_floor(instance: SolverInstance, walk: _Walk) -> int:
    """The largest root ``_Search._rack_bounds`` cost: over the racks the
    initial rows put over threshold, the most the jobs on one rack must
    pay in their cheapest own changes. It reads only the racks in
    excess, so a solve its incumbent meets builds no search."""
    threshold = instance.threshold
    _, loads, split = walk
    floor = 0
    for t, load in enumerate(loads):
        if load <= threshold:
            continue
        costs = []
        max_weight = 0
        for job, row, fragmented in zip(instance.jobs, instance.initial,
                                        split):
            v = row[t]
            if v and fragmented:
                costs.append(_own_change(job, v))
                if job.ring_weight > max_weight:
                    max_weight = job.ring_weight
        if costs:
            costs.sort()
            cost = sum(costs[:math.ceil((load - threshold) / max_weight)])
            floor = max(floor, cost)
    return floor


def _one_move_plan(instance: SolverInstance, order: Sequence[int],
                   walk: _Walk) -> tuple[tuple[int, ...], ...] | None:
    """The plan a search with bound 2 or more and floor 1 returns when
    some plan moves one worker, found without a search; None when none
    does.

    It takes the first move of one unit of a job with unit size 1 whose
    whole placement fits every capacity and keeps every rack within the
    threshold: jobs from the deepest depth of ``order`` to the
    shallowest, then the source rack ascending over the job's row, then
    the destination rack ascending.

    Why that is the search's plan. A leaf costing 1 is below the bound
    until the search takes one, and an admissible prune never cuts a
    subtree holding a leaf below the bound, so the search reaches its
    first cost-1 leaf and takes it; the bound then meets the floor and
    the search stops. Leaves of cost 2 or more taken before it only
    lower the bound to 2 or more. Along a path the used slots and the
    ring loads only grow, so the path's checks (a removal's row fits
    the node's free slots, an addition each rack's room, a fragmented
    row touches no rack one more ring would break) pass exactly when
    the leaf's whole placement fits and keeps every rack within the
    threshold. A cost-1 leaf moves one unit of one unit-size-1 job and
    keeps every other row. Each node tries its job at k = 0 before
    k = 1, so the leaf whose change is deepest comes first; within a
    job at k = 1, ``_removals`` takes the source racks ascending and
    ``_additions`` the destinations ascending.

    Only the racks a job's rows touch change, so every rack over
    capacity must be the source, every rack in excess must be on the
    job's row, and then only the racks on either row need a check."""
    free, loads, split = walk
    threshold = instance.threshold
    short = [t for t, f in enumerate(free) if f < 0]
    if len(short) > 1 or (short and free[short[0]] < -1):
        return None  # one move frees one slot on one rack
    over = [t for t, load in enumerate(loads) if load > threshold]
    num_racks = instance.num_racks
    for i in reversed(order):
        job = instance.jobs[i]
        row0 = instance.initial[i]
        if job.unit_size != 1 or not all(row0[t] for t in over):
            continue
        support = [t for t, v in enumerate(row0) if v]
        weight = job.ring_weight
        before = weight if split[i] else 0
        for s in short or support:
            if not row0[s]:
                continue
            for d in range(num_racks):
                if d == s or free[d] < 1:
                    continue
                row = list(row0)
                row[s] -= 1
                row[d] += 1
                after = weight if is_fragmented(row) else 0
                if not row0[d] and loads[d] + after > threshold:
                    continue  # d joins the row and takes its ring weight
                for t in support:
                    if loads[t] - before + (after if row[t] else 0) \
                            > threshold:
                        break
                else:
                    return tuple(
                        tuple(row) if j == i else row_j
                        for j, row_j in enumerate(instance.initial))
    return None


class _Search:
    """Depth-first branch-and-bound state for one solve.

    One integer bounds the plans it may still accept, exclusively:
    ``bound``, one above the move cap or, with no cap, the jobs' workers,
    lowered to the cost of an incumbent within it and of each leaf taken.

    Three things are built once so that each node stays cheap: per
    depth, the bound table ``_rack_bounds`` reads, with each rack's
    unplaced fragmented jobs as a bitmask for ``_remaining_lb``'s
    disjoint-rack sum, all from one walk; per (job, k), the list of ways
    to remove k units from the job's initial row; and per node, the
    racks where one more fragmented row would break the threshold, each
    rack's room, and the bound of a child per fragmented support, keyed
    by the support's rack bitmask. No table exists until ``run`` starts a
    search; ``solve`` builds no search at all when the incumbent meets
    the root floor (``_root_floor``) or, at a floor of 1, when a
    one-move plan exists (``_one_move_plan``). ``order`` and ``split``
    are the solve's ``_job_order`` and its walk's fragmented flags. The
    candidate rows are generated lazily, already through the capacity
    and ring checks, and each is bounded in its parent before the search
    descends into it. ``nodes`` counts the root and every candidate row
    built, pruned or entered; ``_dfs`` runs only for the entered ones.
    Rows at a k the node cuts are never built, so never counted."""

    def __init__(self, instance: SolverInstance, deadline: float | None,
                 order: list[int], split: list[bool]):
        self.instance = instance
        self.deadline = deadline
        self.nodes = 0
        self.timed_out = False
        self.order = order
        self.split = split
        # built by ``run`` once a search starts
        self.bound_tables: list[list[tuple]] = []
        # (job, k) -> [(row0 less k removed units, racks they left,
        # racks still holding units, and those as a bitmask)]
        self.removal_cache: dict[
            tuple[int, int],
            list[tuple[tuple[int, ...], set[int], tuple[int, ...], int]]
        ] = {}

    def _bound_tables(self
                      ) -> list[list[tuple[int, int, int, list[int], int]]]:
        """The table ``_rack_bounds`` reads at each depth, leaves included.

        A depth's table holds one (rack, ring load of the unplaced jobs
        kept at their initial rows, heaviest ring weight, prefix sums of
        the sorted cheapest own changes, bitmask of the unplaced
        fragmented jobs there) per rack that holds an unplaced fragmented
        job. A rack without an entry has no excess, since the placed
        load never passes the threshold. One walk adds the jobs from the
        deepest up, updating the rack totals in place; a table rebuilds
        only the entries the jobs since the one below it touched."""
        instance = self.instance
        split = self.split
        num_racks = instance.num_racks
        loads = [0] * num_racks
        weights = [0] * num_racks
        costs: list[list[int]] = [[] for _ in range(num_racks)]
        masks = [0] * num_racks
        entries: list[tuple | None] = [None] * num_racks
        changed: set[int] = set()
        table: list[tuple] = []  # at the leaves nothing is unplaced
        tables = [table]
        for depth in range(len(self.order) - 1, -1, -1):
            i = self.order[depth]
            if split[i]:
                job = instance.jobs[i]
                weight = job.ring_weight
                bit = 1 << i
                for t, v in enumerate(instance.initial[i]):
                    if v:
                        loads[t] += weight
                        if weight > weights[t]:
                            weights[t] = weight
                        costs[t].append(_own_change(job, v))
                        masks[t] |= bit
                        changed.add(t)
            if changed:
                for t in changed:
                    costs[t].sort()
                    entries[t] = (t, loads[t], weights[t], list(
                        itertools.accumulate(costs[t], initial=0)),
                        masks[t])
                changed.clear()
                table = [entry for entry in entries if entry]
            tables.append(table)
        tables.reverse()
        return tables

    def run(self, incumbent: list[tuple[int, ...]] | None, floor: int,
            cap: int | None = None) -> None:
        """Anytime branch-and-bound: depth-first over jobs, rows tried in
        increasing per-job move count, every branch pruned against
        ``bound``. That starts at ``cap + 1``, or with no cap at one
        above the jobs' workers, since no plan moves more, and an
        ``incumbent`` below it lowers it to its cost. Exhausting the tree
        proves optimality; a timeout leaves the current best standing. A
        small cap shrinks the space drastically, so "no small plan
        exists" is proven fast.

        The search stops as soon as the best plan costs at most
        ``floor``, the root's per-rack max (``_root_floor``), not the
        tighter disjoint-rack sum that interior nodes prune with. An
        admissible prune cuts only subtrees with no leaf cheaper than
        the best plan, so the leaves accepted, and with them the plan,
        do not depend on the node bound. A floor does change the plan:
        reached at a leaf, it stops the search there, where a search
        that ran on would accept the last leaf of equal cost. The max
        keeps the plans the search has always returned.

        The bound tables are built only once the search starts."""
        instance = self.instance
        self.best = None
        self.bound = 1 + (sum(job.workers for job in instance.jobs)
                          if cap is None else cap)
        if incumbent is not None:
            cost = worker_moves(instance, incumbent)
            if cost < self.bound:
                self.best, self.bound = incumbent, cost
        self.floor = floor
        if self.bound <= floor:
            return  # no plan costs less than the incumbent or the cap
        self.bound_tables = self._bound_tables()
        assignment: list[tuple[int, ...] | None] = [None] * len(
            instance.jobs)
        frag = list(instance.base_load)
        self.nodes += 1  # the root; node 1 never reads the clock
        if self._remaining_lb(0, frag) < self.bound:
            self._dfs(0, 0, list(instance.capacities), frag, assignment)

    def _rack_bounds(self, depth: int, frag: list[int]
                     ) -> list[tuple[int, int]]:
        """(cost, job mask) for every rack that keeping every unplaced
        job at its initial row would push over threshold.

        At least ceil(excess / heaviest weight) of the unplaced
        fragmented jobs on such a rack (the mask) must change, each
        paying at least its cheapest own change (vacate the rack or
        become whole); the cost is the sum of the k cheapest, the depth
        table's prefix sum at k."""
        threshold = self.instance.threshold
        out = []
        for t, load, max_weight, prefix, mask in self.bound_tables[depth]:
            excess = frag[t] + load - threshold
            if excess > 0:
                k_min = math.ceil(excess / max_weight)
                out.append((prefix[min(k_min, len(prefix) - 1)], mask))
        return out

    def _remaining_lb(self, depth: int, frag: list[int]) -> int:
        """Admissible bound on the cost the unplaced jobs must still pay:
        a disjoint-rack sum of the ``_rack_bounds``.

        Racks may share fixes, since one job's change can relieve every
        rack it spans. Racks whose job masks are disjoint cannot: each
        pays for its own jobs. So the racks are taken in decreasing
        cost (then mask), and each one whose jobs meet none of those
        already taken adds its cost. With fewer than two racks in
        excess there is nothing to sort: the bound is that rack's cost,
        or 0."""
        racks = self._rack_bounds(depth, frag)
        if len(racks) < 2:
            return racks[0][0] if racks else 0
        racks.sort(reverse=True)
        total = taken = 0
        for cost, mask in racks:
            if not mask & taken:
                total += cost
                taken |= mask
        return total

    def _removals(self, job_idx: int, k: int
                  ) -> list[tuple[tuple[int, ...], set[int],
                                  tuple[int, ...], int]]:
        """Every way to take k units off the job's initial row, as the
        row left behind, the racks the units left, and the racks still
        holding units as a tuple and as a bitmask; built once per
        search. A rack never gives more than it holds."""
        key = (job_idx, k)
        cached = self.removal_cache.get(key)
        if cached is None:
            row0 = self.instance.initial[job_idx]
            support = [t for t, v in enumerate(row0) if v]
            cached = []
            for removal in _splits(k, support, row0):
                removed = list(row0)
                for t, cnt in removal:
                    removed[t] -= cnt
                kept = tuple([t for t in support if removed[t]])
                bits = 0
                for t in kept:
                    bits |= 1 << t
                cached.append((tuple(removed), {t for t, _ in removal},
                               kept, bits))
            self.removal_cache[key] = cached
        return cached

    def _dfs(self, depth, cost, free, frag, assignment):
        """One search node, entered already counted and bounded by its
        parent: every row of the job at ``depth`` that fits and passes
        the ring check, in increasing move count, is a child.

        Each child is one node, counted here as it is built, and the
        deadline is read on every 1024th. An interior child is bounded
        before it is entered: its bound reads only ``frag``, so the
        parent adds the job's ring weight on the row's fragmented
        support, reads ``_remaining_lb`` one depth down and restores
        ``frag``. ``frag`` is also restored after every child searched,
        so within a node that bound depends only on the support and is
        memoised by it. A child it prunes gets no ``free`` or
        ``assignment`` update; the rest are entered. Leaves are not
        bounded.

        Before the rows at k are built, the node stops once k moves plus
        ``whole_lb`` reach the bound. ``whole_lb`` is the bound of a
        child that adds no ring load (support key ``0``), and
        it bounds every child: the node bound ignores capacity, a row
        only adds ring load, and the cheapest completion of the deeper
        jobs never costs less under more load. The greedy disjoint-rack
        sum itself is not monotone in ``frag``: with racks B and C in
        excess, costing 3 each for jobs {1} and {2}, it is 6, and load
        that also puts rack A in excess, costing 5 for jobs {1, 2},
        makes it 5. So ``whole_lb`` may exceed a row's own bound, but it
        still bounds that row's cheapest completion, and a cut subtree
        holds no leaf below the bound. A leaf at equal cost is taken
        only after a sibling leaf below the bound of its time, and the
        bound only falls, so the cut changes no plan. A leaf-parent
        keeps ``whole_lb`` 0: its tie rule and the floor stop are as
        before. An addition is capped by each rack's room alone."""
        if depth == len(self.order):
            # A leaf replaces the best plan even at equal cost, while
            # interior nodes prune at >= the bound: among equal-cost
            # sibling leaves, the last one generated wins.
            self.best = [row for row in assignment]
            self.bound = cost
            return
        job_idx = self.order[depth]
        job = self.instance.jobs[job_idx]
        unit, weight = job.unit_size, job.ring_weight
        row0 = self.instance.initial[job_idx]
        threshold = self.instance.threshold
        # racks a fragmented row may not touch; frag is restored after
        # every child, so this holds for the whole node
        hot = [f + weight > threshold for f in frag]
        # free is restored after every child too, so each rack's room
        # for units beyond row0 holds for the whole node
        room = [f // unit - v for f, v in zip(free, row0)]
        leaf = depth + 1 == len(self.order)
        # the bound of a child that adds no ring load bounds every child
        # (see the docstring); a leaf-parent's children are not bounded
        whole_lb = 0 if leaf else self._remaining_lb(depth + 1, frag)
        child_lbs: dict[int, int] = {0: whole_lb}
        for k in range(job.units + 1):
            child_cost = cost + k * unit
            if child_cost + whole_lb >= self.bound:
                return  # no row at this k or later leads to a cheaper plan
            # Rows at exactly k unit-moves from row0: a removal, then an
            # addition on racks it did not take from.
            for removed, sources, kept, kept_bits in self._removals(
                    job_idx, k):
                # an addition never overflows a rack's room, so a row
                # fits exactly when the removal's row does
                overflows = False
                for t in kept:
                    if unit * removed[t] > free[t]:
                        overflows = True
                        break
                if overflows:
                    continue
                for addition in _additions(k, sources, kept, room, hot):
                    self.nodes += 1
                    if (self.deadline is not None and not self.nodes % 1024
                            and time.monotonic() > self.deadline):
                        self.timed_out = True
                        return
                    # the racks the row touches; a row whole on one rack
                    # adds no ring load
                    support = kept_bits
                    for t, _ in addition:
                        support |= 1 << t
                    fragmented = support & (support - 1)  # two racks or more
                    if not leaf:
                        key = support if fragmented else 0
                        lb = child_lbs.get(key)
                        if lb is None:
                            racks = [t for t in range(len(frag))
                                     if key >> t & 1]
                            for t in racks:
                                frag[t] += weight
                            lb = self._remaining_lb(depth + 1, frag)
                            for t in racks:
                                frag[t] -= weight
                            child_lbs[key] = lb
                        if child_cost + lb >= self.bound:
                            continue
                    row = list(removed)
                    for t, cnt in addition:
                        row[t] += cnt
                    row = tuple(row)
                    for t, v in enumerate(row):
                        free[t] -= unit * v
                        if fragmented and v:
                            frag[t] += weight
                    assignment[job_idx] = row
                    self._dfs(depth + 1, child_cost, free, frag, assignment)
                    for t, v in enumerate(row):
                        free[t] += unit * v
                        if fragmented and v:
                            frag[t] -= weight
                    assignment[job_idx] = None
                    if self.timed_out:
                        return
                    if self.bound <= self.floor:
                        return  # proven optimal by the lower bound


def solve(instance: SolverInstance,
          time_limit: float | None = None,
          max_moves: int | None = None) -> MigrationPlan:
    """Exact minimum-move plan meeting the fragmentation threshold.

    Raises InfeasibleError when no placement satisfies the constraints,
    up front when ``base_load`` alone exceeds the threshold on some rack
    or the capacities cannot hold the jobs' workers. The repair
    incumbent bounds the search. One within the cap that meets the
    root's floor (``_root_floor``, read from the racks in excess alone)
    is returned before any search is built, with 0 nodes: a compliant
    instance comes back as its initial rows and 0 moves. At a floor of
    1, an incumbent that misses it and a cap of at least one move, the
    search would return its first one-move plan; ``_one_move_plan``
    finds that plan by a direct scan, also with 0 nodes, and only when
    there is none does the search run. With no ``time_limit`` (the
    default) the result does not depend on wall-clock time; a search
    that reaches the limit returns the best plan found so far with
    ``stats.optimal`` False, or raises SolverTimeout when it found none.
    The scan reads no clock.

    With ``max_moves``, only plans at or below that many worker moves
    are considered; MoveBudgetExceeded is raised when none exists.
    Without it the cap is the workers the jobs hold, which no plan
    exceeds. A small cap makes the search far cheaper, so callers that
    would never apply a large plan anyway should always set one. Every
    error a solve raises carries ``nodes_explored``, as its stats
    would: the search's count, or 0 when raised before any search.
    """
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit

    threshold = instance.threshold
    for load in instance.base_load:
        if load > threshold:
            raise InfeasibleError("the frozen ring load alone exceeds the "
                                  "threshold")
    walk = _initial_walk(instance)
    if sum(walk[0]) < 0:
        raise InfeasibleError("the capacities cannot hold the jobs' workers")
    incumbent = _repair_incumbent(instance, walk)
    floor = _root_floor(instance, walk)
    if incumbent is not None:
        cost = worker_moves(instance, incumbent)
        if cost <= floor and (max_moves is None or cost <= max_moves):
            # no plan costs less: settled without a search
            return MigrationPlan(tuple(incumbent), SolverStats(
                cost, time.monotonic() - start, 0, True))
    split = walk[2]
    order = _job_order(instance, split)
    if floor == 1 and (max_moves is None or max_moves >= 1):
        # the search's bound starts at 2 or more: its plan is the first
        # one-move plan, if there is one
        target = _one_move_plan(instance, order, walk)
        if target is not None:
            return MigrationPlan(target, SolverStats(
                1, time.monotonic() - start, 0, True))
    search = _Search(instance, deadline, order, split)
    search.run(incumbent, floor, cap=max_moves)

    elapsed = time.monotonic() - start
    if search.best is None:
        if search.timed_out:
            raise SolverTimeout("time limit hit before any plan was found",
                                search.nodes)
        if max_moves is not None:
            feasible = incumbent is not None
            raise MoveBudgetExceeded(
                f"no plan within {max_moves} worker moves"
                + (" (larger plans exist)" if feasible else ""),
                search.nodes)
        raise InfeasibleError("no placement satisfies the threshold",
                              search.nodes)
    stats = SolverStats(search.bound, elapsed, search.nodes,
                        not search.timed_out)
    return MigrationPlan(tuple(search.best), stats)


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
            _, loads = ring_walk(instance.jobs, chosen, instance.base_load)
            if all(load <= instance.threshold for load in loads):
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


def _count(value, name: str, least: int = 0) -> int:
    """``value`` if it is an int (not a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"not {value!r}")
    return value


def _counts(values, name: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list, not {values!r}")
    return tuple(_count(v, name) for v in values)


def load_instance(path: str) -> SolverInstance:
    """Read a solver instance written by save_instance. Raises
    ValueError for a count that is not a non-negative int (a rack count,
    job units, unit size or ring weight below 1) or a threshold that is
    not a finite number."""
    with open(path) as f:
        data = json.load(f)
    num_racks = _count(data["num_racks"], "num_racks", 1)
    threshold = data["threshold"]
    if type(threshold) not in (int, float) or not math.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, "
                         f"not {threshold!r}")
    jobs = []
    initial = []
    for rec in data["jobs"]:
        key = rec["key"]
        jobs.append(SolverJob(
            key=tuple(key) if isinstance(key, list) else key,
            units=_count(rec["units"], "units", 1),
            unit_size=_count(rec.get("unit_size", 1), "unit_size", 1),
            ring_weight=_count(rec.get("ring_weight", 1), "ring_weight", 1)))
        initial.append(_counts(rec["initial"], "initial"))
    return SolverInstance(
        num_racks=num_racks,
        capacities=_counts(data["capacities"], "capacities"),
        threshold=threshold,
        jobs=tuple(jobs),
        initial=tuple(initial),
        base_load=_counts(data.get("base_load", []), "base_load"),
    )
