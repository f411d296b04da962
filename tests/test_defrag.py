import bisect
import hashlib
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from defragsim import defrag
from defragsim.defrag import (
    InfeasibleError, MigrationPlan, MoveBudgetExceeded, OracleTooLargeError,
    SolverInstance, SolverJob, SolverStats, SolverTimeout,
    brute_force_min_moves, is_fragmented, ring_walk, solve, worker_moves,
)


def uniform_instance(capacity, threshold, jobs, initial):
    """An instance with ``capacity`` slots on every rack and no frozen
    ring load, its rack count the length of the initial rows."""
    num_racks = len(initial[0]) if initial else 0
    return SolverInstance(num_racks, (capacity,) * num_racks, threshold,
                          tuple(jobs), tuple(tuple(row) for row in initial))


def random_instance(rng, max_racks=4, max_cap=4, max_jobs=5,
                    thresholds=(2, 3)):
    T = rng.randint(2, max_racks)
    C = rng.randint(1, max_cap)
    num_jobs = rng.randint(1, max_jobs)
    free = [C] * T
    jobs, initial = [], []
    for j in range(num_jobs):
        remaining = sum(free)
        if remaining == 0:
            break
        size = rng.randint(1, remaining)
        row = [0] * T
        placed = 0
        while placed < size:
            t = rng.choice([t for t in range(T) if free[t] > 0])
            take = rng.randint(1, min(size - placed, free[t]))
            row[t] += take
            free[t] -= take
            placed += take
        jobs.append(SolverJob(key=j, units=size))
        initial.append(row)
    lam = rng.choice(thresholds)
    return uniform_instance(C, lam, jobs, initial)


def assert_plan_valid(instance, plan: MigrationPlan):
    # every job fully assigned
    for job, row in zip(instance.jobs, plan.target):
        assert sum(row) == job.units
        assert all(v >= 0 for v in row)
    # rack capacities hold
    for t in range(instance.num_racks):
        used = sum(job.unit_size * row[t]
                   for job, row in zip(instance.jobs, plan.target))
        assert used <= instance.capacities[t]
    # ring-weighted fragmentation threshold holds
    for t in range(instance.num_racks):
        load = sum(job.ring_weight
                   for job, row in zip(instance.jobs, plan.target)
                   if row[t] > 0 and sum(1 for v in row if v > 0) >= 2)
        assert load <= instance.threshold
    # move count is half the l1 distance
    assert plan.move_count == worker_moves(instance, plan.target)


def test_compliant_instance_zero_moves():
    inst = uniform_instance(4, 2, [SolverJob(0, 4), SolverJob(1, 3)],
                            [[4, 0], [0, 3]])
    plan = solve(inst)
    assert plan.move_count == 0
    assert plan.target == inst.initial
    assert plan.stats.optimal
    # the repair incumbent meets the root floor: no node is searched
    assert plan.stats.nodes_explored == 0


def test_single_split_job_one_move():
    inst = uniform_instance(2, 0, [SolverJob(0, 2)], [[1, 1]])
    plan = solve(inst)
    assert plan.move_count == 1
    assert_plan_valid(inst, plan)
    assert brute_force_min_moves(inst) == 1


def test_motivating_example_needs_four_moves():
    # 8 racks x 4 single-GPU hosts, five jobs sized {6, 4, 6, 4, 6},
    # fragmented start; eliminating congestion takes 4 migrations.
    jobs = [SolverJob(k, s) for k, s in enumerate((6, 4, 6, 4, 6))]
    initial = [
        [0, 3, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 2, 2, 0, 0, 0],
        [0, 1, 1, 0, 1, 1, 0, 2],
        [3, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 2, 1, 0, 1, 0, 1],
    ]
    inst = uniform_instance(4, 2, jobs, initial)
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.stats.optimal
    assert plan.move_count == 4


def test_oracle_compliant_is_zero():
    inst = uniform_instance(4, 2, [SolverJob(0, 4)], [[0, 4, 0]])
    assert brute_force_min_moves(inst) == 0


def test_oracle_guard():
    jobs = [SolverJob(k, 16) for k in range(8)]
    initial = [[2] * 8 for _ in range(8)]
    inst = uniform_instance(16, 2, jobs, initial)
    with pytest.raises(OracleTooLargeError):
        brute_force_min_moves(inst, enumeration_limit=1000)


def test_solve_matches_oracle_exhaustive_small():
    # exhaustive over all initial placements of two jobs on 3 racks, C=2
    T, C = 3, 2
    for s0 in range(1, 4):
        for s1 in range(1, 4):
            if s0 + s1 > T * C:
                continue
            rows0 = [r for r in itertools.product(range(C + 1), repeat=T)
                     if sum(r) == s0]
            rows1 = [r for r in itertools.product(range(C + 1), repeat=T)
                     if sum(r) == s1]
            for r0 in rows0:
                for r1 in rows1:
                    if any(a + b > C for a, b in zip(r0, r1)):
                        continue
                    for lam in (2, 3):
                        inst = uniform_instance(
                            C, lam, [SolverJob(0, s0), SolverJob(1, s1)],
                            [r0, r1])
                        plan = solve(inst)
                        assert_plan_valid(inst, plan)
                        assert plan.move_count == brute_force_min_moves(inst)


@pytest.mark.parametrize("seed", range(10))
def test_solve_matches_oracle_random_batches(seed):
    rng = random.Random(1000 + seed)
    for _ in range(50):
        inst = random_instance(rng)
        plan = solve(inst)
        assert_plan_valid(inst, plan)
        assert plan.move_count == brute_force_min_moves(inst)


def test_threshold_monotonicity():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng, thresholds=(2,))
        moves = []
        for lam in (2, 3, 4):
            relaxed = SolverInstance(inst.num_racks, inst.capacities, lam,
                                     inst.jobs, inst.initial)
            moves.append(solve(relaxed).move_count)
        assert moves == sorted(moves, reverse=True)


def test_tp_weighted_threshold():
    # one TP-8 job split across two racks counts 8 rings on each
    jobs = [SolverJob(0, units=4, unit_size=8, ring_weight=8)]
    inst = uniform_instance(32, 7, jobs, [[2, 2]])
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.move_count == 16  # two TP units of 8 workers re-unified
    # with threshold 8 the split placement is already compliant
    inst_ok = uniform_instance(32, 8, jobs, [[2, 2]])
    assert solve(inst_ok).move_count == 0


def test_infeasible_raises():
    # two jobs larger than any rack on a full 3-rack cluster, threshold 1:
    # both jobs always fragment and must overlap on some rack
    jobs = [SolverJob(0, 3), SolverJob(1, 3)]
    inst = uniform_instance(2, 1, jobs, [[2, 1, 0], [0, 1, 2]])
    with pytest.raises(InfeasibleError):
        solve(inst, time_limit=None)
    with pytest.raises(InfeasibleError):
        brute_force_min_moves(inst)


@pytest.mark.parametrize("max_moves", [None, 16])
@pytest.mark.parametrize("threshold", [2, 0])
def test_capacity_short_of_workers_is_infeasible(threshold, max_moves):
    # 3 workers on two 1-slot racks: no placement fits, whether or not
    # the initial rows break the threshold
    inst = SolverInstance(2, (1, 1), threshold, (SolverJob(0, 3),), ((2, 1),))
    with pytest.raises(InfeasibleError,
                       match="^the capacities cannot hold the jobs' workers$"
                       ) as raised:
        solve(inst, time_limit=None, max_moves=max_moves)
    assert raised.value.nodes_explored == 0
    with pytest.raises(InfeasibleError):
        brute_force_min_moves(inst)


@pytest.mark.parametrize("max_moves", [None, 16])
@pytest.mark.parametrize("threshold", [2, 0])
def test_initial_rack_overflow_is_repaired(threshold, max_moves):
    # the capacities hold the job but rack 0 holds one worker too many:
    # a plan must move it even when no rack breaks the threshold
    inst = SolverInstance(2, (1, 3), threshold, (SolverJob(0, 3),), ((2, 1),))
    plan = solve(inst, time_limit=None, max_moves=max_moves)
    assert_plan_valid(inst, plan)
    assert plan.stats.optimal
    assert plan.move_count == brute_force_min_moves(inst)


def test_ring_loads_weight_fragmented_rows_only():
    jobs = [SolverJob(0, 2, unit_size=8, ring_weight=8), SolverJob(1, 3),
            SolverJob(2, 2)]
    rows = [[1, 1, 0], [0, 3, 0], [0, 1, 1]]
    assert ring_walk(jobs, rows, [0, 0, 0])[1] == [8, 9, 1]
    assert ring_walk(jobs, rows, [2, 0, 5])[1] == [10, 9, 6]
    # a row on one rack is whole, whatever its unit count
    assert ring_walk(jobs, rows, [0, 0, 0])[0] == [True, False, True]


@pytest.mark.parametrize("jobs, initial", [
    # a stray row would come back as a row of the plan
    ((SolverJob(0, 2),), ((1, 1), (2, 0))),
    # a job without a row would fail inside the search
    ((SolverJob(0, 2), SolverJob(1, 2)), ((1, 1),)),
])
def test_one_initial_row_per_job(jobs, initial):
    with pytest.raises(ValueError, match="one row per job"):
        SolverInstance(2, (4, 4), 0, jobs, initial)


@pytest.mark.parametrize("max_moves", [None, 4])
def test_frozen_overload_is_infeasible(max_moves):
    # rack 0 is over the threshold from frozen load alone; no move of
    # the instance's own jobs can bring it back
    jobs = [SolverJob(k, 2) for k in "abc"]
    inst = SolverInstance(
        num_racks=3, capacities=(4, 4, 4), threshold=1, jobs=tuple(jobs),
        initial=((0, 1, 1),) * 3, base_load=(2, 0, 0))
    with pytest.raises(InfeasibleError):
        solve(inst, time_limit=None, max_moves=max_moves)
    with pytest.raises(InfeasibleError):
        brute_force_min_moves(inst)


def test_moving_settled_jobs_when_capacity_is_tight():
    # Re-unifying the fragmented job requires relocating a whole job that
    # is not itself fragmented; the solver must consider such moves.
    jobs = [SolverJob("whole", 1), SolverJob("frag", 4)]
    initial = [[1, 0, 0],
               [3, 1, 0]]
    inst = uniform_instance(4, 0, jobs, initial)
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.move_count == brute_force_min_moves(inst)
    assert plan.move_count == 2  # evict the 1-worker job, gather "frag"


def test_stats_populated():
    inst = uniform_instance(2, 0, [SolverJob(0, 2)], [[1, 1]])
    plan = solve(inst)
    assert plan.stats.solve_time >= 0
    assert plan.stats.optimal
    assert plan.stats.move_count == plan.move_count


@st.composite
def tp_unit_instances(draw):
    """Instances shaped like the controller's: TP units of 1, 2 or 4
    workers weighing their unit size, a different capacity on each rack,
    and frozen ring load below the threshold, nonzero on the rack the
    jobs load most."""
    num_racks = draw(st.integers(2, 4))
    capacities = draw(st.lists(st.integers(0, 8), min_size=num_racks,
                               max_size=num_racks, unique=True))
    free = list(capacities)
    jobs, initial = [], []
    for key in range(draw(st.integers(2, 5))):
        unit = draw(st.sampled_from((1, 2, 4)))
        # mostly one unit per rack while it can, so most jobs start
        # fragmented like the controller's movable stages
        spread = draw(st.sampled_from((True, True, False)))
        row = [0] * num_racks
        for _ in range(draw(st.integers(2, 4))):
            fits = [t for t in range(num_racks) if free[t] >= unit]
            if spread and any(row[t] == 0 for t in fits):
                fits = [t for t in fits if row[t] == 0]
            if not fits:
                break
            t = draw(st.sampled_from(fits))
            row[t] += 1
            free[t] -= unit
        if sum(row):
            jobs.append(SolverJob(key, sum(row), unit, unit))
            initial.append(tuple(row))
    threshold = draw(st.integers(2, 4))
    base_load = [draw(st.integers(0, threshold - 1))
                 for _ in range(num_racks)]
    _, loads = ring_walk(jobs, initial, [0] * num_racks)
    base_load[loads.index(max(loads))] = draw(st.integers(1, threshold - 1))
    max_moves = draw(st.integers(0, 8))
    return SolverInstance(num_racks, tuple(capacities), threshold,
                          tuple(jobs), tuple(initial),
                          tuple(base_load)), max_moves


@settings(max_examples=300, deadline=None)
@given(tp_unit_instances())
def test_solve_matches_oracle_on_tp_unit_instances(drawn):
    inst, max_moves = drawn
    try:
        expected = brute_force_min_moves(inst)
    except InfeasibleError:
        expected = None
    for cap in (None, max_moves):
        if expected is None:
            errors = InfeasibleError if cap is None else (
                InfeasibleError, MoveBudgetExceeded)
            with pytest.raises(errors):
                solve(inst, time_limit=None, max_moves=cap)
        elif cap is not None and expected > cap:
            with pytest.raises(MoveBudgetExceeded):
                solve(inst, time_limit=None, max_moves=cap)
        else:
            plan = solve(inst, time_limit=None, max_moves=cap)
            assert_plan_valid(inst, plan)
            assert plan.stats.optimal
            assert plan.move_count == expected


# -- reference search --------------------------------------------------------
#
# The branch-and-bound as it was before its per-node checks were hoisted
# and its node bound became a disjoint-rack sum: lazy generators, per-row
# capacity and ring checks, per-depth load and option tables, additions
# capped by each rack's room alone, and the per-rack max as both floor and
# node bound. ``solve`` must return exactly the same plan, exploring no
# more nodes.


def _ref_splits(k, racks, limits):
    if k == 0:
        yield ()
        return
    if not racks:
        return
    head, tail = racks[0], racks[1:]
    for here in range(min(k, limits[head]), -1, -1):
        for rest in _ref_splits(k - here, tail, limits):
            if here:
                yield ((head, here),) + rest
            else:
                yield rest


def _ref_candidate_rows(row0, k, add_limits):
    num_racks = len(row0)
    support = [t for t in range(num_racks) if row0[t] > 0]
    for removal in _ref_splits(k, support, row0):
        removed = list(row0)
        for t, cnt in removal:
            removed[t] -= cnt
        sources = {t for t, _ in removal}
        targets = [t for t in range(num_racks)
                   if t not in sources and add_limits[t] > 0]
        for addition in _ref_splits(k, targets, add_limits):
            row = list(removed)
            for t, cnt in addition:
                row[t] += cnt
            yield tuple(row)


def _ref_ring_checked_additions(k, removed, sources, limits, hot):
    """The additions to one removal's row that the search accepted when
    it generated every row and then ran the ring check on it."""
    targets = [t for t in range(len(removed))
               if t not in sources and limits[t] > 0]
    removed_hot = any(h for h, v in zip(hot, removed) if v)
    out = []
    for addition in _ref_splits(k, targets, limits):
        row = list(removed)
        for t, cnt in addition:
            row[t] += cnt
        if is_fragmented(row) and (removed_hot or any(
                hot[t] for t, _ in addition)):
            continue
        out.append(addition)
    return out


@st.composite
def removal_rows(draw):
    """A removal of k units from an initial row, with the addition
    limits of a node and its hot racks."""
    num_racks = draw(st.integers(1, 6))
    row0 = draw(st.lists(st.integers(0, 4), min_size=num_racks,
                         max_size=num_racks).filter(any))
    k = draw(st.integers(0, sum(row0)))
    support = [t for t, v in enumerate(row0) if v]
    removal = draw(st.sampled_from(list(_ref_splits(k, support, row0))))
    removed = list(row0)
    for t, cnt in removal:
        removed[t] -= cnt
    limits = draw(st.lists(st.integers(-2, 6), min_size=num_racks,
                           max_size=num_racks))
    threshold = draw(st.integers(0, 8))
    weight = draw(st.integers(1, 8))
    frag = draw(st.lists(st.integers(0, 8), min_size=num_racks,
                         max_size=num_racks))
    hot = [f + weight > threshold for f in frag]
    return k, tuple(removed), {t for t, _ in removal}, limits, hot


@settings(max_examples=1000, deadline=None)
@given(removal_rows())
# k == 0: the initial row, whole on a hot rack, is accepted
@example((0, (0, 3, 0), set(), [2, 2, 2], [False, True, False]))
# k == units: a whole row may land on a hot rack, a split one may not
@example((2, (0, 0, 0, 0), {0, 1}, [2, 2, 2, 2], [False, False, True, False]))
@example((2, (0, 0, 0, 0), {0, 1}, [2, 2, 2, 2], [False, False, False, True]))
# a lone hot rack left by the removal takes the whole row back
@example((1, (0, 2, 0), {0}, [2, 2, 2], [False, True, False]))
def test_additions_are_the_ring_checked_splits(drawn):
    k, removed, sources, limits, hot = drawn
    kept = tuple(t for t, v in enumerate(removed) if v)
    assert list(defrag._additions(k, sources, kept, limits, hot)) == (
        _ref_ring_checked_additions(k, removed, sources, limits, hot))


class _RefSearch:
    def __init__(self, instance, deadline):
        self.instance = instance
        self.deadline = deadline
        self.nodes = 0
        self.timed_out = False
        self.order = sorted(
            range(len(instance.jobs)),
            key=lambda i: (not is_fragmented(instance.initial[i]),
                           -instance.jobs[i].workers, i))
        self.rest_loads = [[0] * instance.num_racks]
        self.rest_options = [[[] for _ in range(instance.num_racks)]]
        for i in reversed(self.order):
            job, row = instance.jobs[i], instance.initial[i]
            self.rest_loads.append(
                ring_walk([job], [row], self.rest_loads[-1])[1])
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

    def run(self, incumbent, floor, cap=None):
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
            return
        free = list(self.instance.capacities)
        frag = list(self.instance.base_load)
        assignment = [None] * len(self.instance.jobs)
        self._dfs(0, 0, free, frag, assignment)

    def _bound(self):
        if self.best_cost is not None:
            return self.best_cost
        if self.cap is not None:
            return self.cap + 1
        return None

    def _remaining_lb(self, depth, frag):
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
                return
            add_limits = [f // job.unit_size - row0[t]
                          for t, f in enumerate(free)]
            for row in _ref_candidate_rows(row0, k, add_limits):
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
                    if fragmented and v:
                        frag[t] += job.ring_weight
                assignment[job_idx] = row
                self._dfs(depth + 1, cost + k * job.unit_size, free, frag,
                          assignment)
                for t, v in enumerate(row):
                    free[t] += job.unit_size * v
                    if fragmented and v:
                        frag[t] -= job.ring_weight
                assignment[job_idx] = None
                if self.timed_out:
                    return
                if self.best_cost is not None and self.best_cost <= self.floor:
                    return
            if self.timed_out:
                return
            k += 1


def _ref_violating_racks(instance, placement):
    _, loads = ring_walk(instance.jobs, placement, instance.base_load)
    return {t for t, load in enumerate(loads) if load > instance.threshold}


def _ref_repair_incumbent(instance):
    """The repair written with a full ring-load sum over every job on
    every pass: the reference ``defrag._repair_incumbent`` must match."""
    jobs = instance.jobs
    num_racks = instance.num_racks
    placement = [list(row) for row in instance.initial]
    free = list(instance.capacities)
    for job, row in zip(jobs, placement):
        for t, v in enumerate(row):
            free[t] -= job.unit_size * v

    def vacate(i, t):
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

    def consolidate(i, u):
        job = jobs[i]
        for t, v in enumerate(placement[i]):
            free[t] += job.unit_size * v
        placement[i] = [0] * num_racks
        placement[i][u] = job.units
        free[u] -= job.workers

    for _ in range(4 * len(jobs) + 4):
        violating = _ref_violating_racks(instance, placement)
        if not violating:
            if any(f < 0 for f in free):
                return None
            return [tuple(row) for row in placement]
        t = min(violating)
        best = None  # cost, i, arg, kind
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
                    if best is None or need < best[0]:
                        best = (need, i, u, "consolidate")
        if best is None:
            return None
        _, i, arg, kind = best
        if kind == "vacate":
            vacate(i, arg)
        else:
            consolidate(i, arg)
    return None


def _ref_bound_table(instance, order, depth):
    """The bound table of ``depth``, rebuilt from ``ring_walk`` over the
    unplaced jobs and each rack's sorted options."""
    unplaced = order[depth:]
    _, loads = ring_walk([instance.jobs[i] for i in unplaced],
                         [instance.initial[i] for i in unplaced],
                         [0] * instance.num_racks)
    table = []
    for t in range(instance.num_racks):
        options = sorted(
            (instance.jobs[i].unit_size
             * min(instance.initial[i][t],
                   instance.jobs[i].units - instance.initial[i][t]),
             instance.jobs[i].ring_weight, i)
            for i in unplaced
            if instance.initial[i][t] and is_fragmented(instance.initial[i]))
        if options:
            table.append((
                t, loads[t], max(w for _, w, _ in options),
                list(itertools.accumulate((c for c, _, _ in options),
                                          initial=0)),
                sum(1 << i for _, _, i in options)))
    return table


def reference_solve(instance, max_moves=None):
    """``solve`` with ``time_limit=None`` over the reference search."""
    if any(load > instance.threshold for load in instance.base_load):
        raise InfeasibleError("frozen overload")
    if sum(instance.capacities) < sum(job.workers for job in instance.jobs):
        raise InfeasibleError("capacity short of workers")
    incumbent = _ref_repair_incumbent(instance)
    search = _RefSearch(instance, None)
    search.run(incumbent, search._remaining_lb(0, list(instance.base_load)),
               cap=max_moves)
    if search.best is None:
        if max_moves is not None:
            raise MoveBudgetExceeded("no plan within the cap")
        raise InfeasibleError("no placement satisfies the threshold")
    return MigrationPlan(
        tuple(search.best),
        SolverStats(search.best_cost, 0.0, search.nodes, True))


@st.composite
def lockstep_instances(draw):
    """TP units of 1, 2, 4 or 8 workers weighing their unit size, a
    different capacity on each rack, nonzero frozen ring load up to the
    threshold (so some racks are hot for a fragmented row), and initial
    rows that may overflow a rack, so whole removals do not fit."""
    num_racks = draw(st.integers(2, 5))
    capacities = draw(st.lists(st.integers(0, 24), min_size=num_racks,
                               max_size=num_racks, unique=True))
    overflow = draw(st.booleans())
    free = list(capacities)
    jobs, initial = [], []
    for key in range(draw(st.integers(1, 5))):
        unit = draw(st.sampled_from((1, 2, 4, 8)))
        row = [0] * num_racks
        for _ in range(draw(st.integers(1, 4))):
            fits = [t for t in range(num_racks)
                    if overflow or free[t] >= unit]
            if not fits:
                break
            t = draw(st.sampled_from(fits))
            row[t] += 1
            free[t] -= unit
        if sum(row):
            jobs.append(SolverJob(key, sum(row), unit, unit))
            initial.append(tuple(row))
    if not jobs:
        jobs.append(SolverJob(0, 1))
        initial.append((1,) + (0,) * (num_racks - 1))
    threshold = draw(st.integers(1, 10))
    base_load = draw(st.lists(st.integers(0, threshold), min_size=num_racks,
                              max_size=num_racks).filter(any))
    max_moves = draw(st.one_of(st.none(), st.integers(0, 16)))
    return SolverInstance(num_racks, tuple(capacities), threshold,
                          tuple(jobs), tuple(initial),
                          tuple(base_load)), max_moves


def _outcome(solver, instance, max_moves):
    """The plan's (target, move count, optimal) and its node count, or
    the exception type and None."""
    try:
        plan = solver(instance, max_moves)
    except (InfeasibleError, MoveBudgetExceeded) as exc:
        return type(exc), None
    return ((plan.target, plan.move_count, plan.stats.optimal),
            plan.stats.nodes_explored)


@settings(max_examples=300, deadline=None)
@given(lockstep_instances())
# the sum prunes where the max cannot: 1 node against 6
@example((SolverInstance(
    4, (0, 2, 4, 3), 2, (SolverJob(0, 2, 1, 1), SolverJob(1, 4, 1, 1)),
    ((0, 1, 0, 1), (0, 1, 3, 0)), (0, 0, 2, 2)), None))
# a floor at the sum would stop at the first of two 5-move leaves,
# ((1, 0, 0, 1, 0), (2, 0, 0, 0, 0)), not at the last
@example((SolverInstance(
    5, (9, 0, 1, 2, 3), 1, (SolverJob(0, 2, 1, 1), SolverJob(1, 2, 4, 4)),
    ((1, 0, 1, 0, 0), (1, 1, 0, 0, 0)), (0, 0, 1, 0, 0)), None))
# rack 0 overflows, so the repair has no incumbent and, with no cap,
# nothing bounds the search but the jobs' workers
@example((SolverInstance(
    4, (0, 1, 2, 3), 1, tuple(SolverJob(key, 1) for key in range(3)),
    ((1, 0, 0, 0),) * 3, (0, 0, 0, 1)), None))
# the whole-row cut ends a node before it builds a row: 4 nodes against
# the reference's 18, and 5 with the k-loop cut at the move cost alone
@example((SolverInstance(
    4, (0, 1, 2, 3), 1, (SolverJob(0, 1), SolverJob(1, 2), SolverJob(2, 2)),
    ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)), (0, 0, 1, 0)), None))
# a rack's room alone caps each addition, not its slack plus the workers
# the moves left could evict: the reference's plan, in 4 nodes to its 10
@example((SolverInstance(
    3, (4, 0, 6), 2, (SolverJob(0, 2, 1, 1), SolverJob(1, 2, 2, 2),
                      SolverJob(2, 1, 2, 2)),
    ((1, 0, 1), (1, 0, 1), (0, 0, 1)), (1, 0, 0)), 3))
# capped by room alone, this takes 2 nodes where the slack cap took 1
@example((SolverInstance(
    3, (0, 2, 2), 0, (SolverJob(0, 2), SolverJob(1, 1)),
    ((1, 0, 1), (0, 0, 1))), None))
def test_search_matches_reference_in_lockstep(drawn):
    inst, max_moves = drawn
    fast, fast_nodes = _outcome(
        lambda i, m: solve(i, time_limit=None, max_moves=m), inst, max_moves)
    ref, ref_nodes = _outcome(reference_solve, inst, max_moves)
    assert fast == ref
    if ref_nodes is not None:
        assert fast_nodes <= ref_nodes


@settings(max_examples=300, deadline=None)
@given(lockstep_instances())
def test_no_cap_is_the_worker_count_cap(drawn):
    """No plan moves more workers than the jobs hold, so a solve with no
    cap is the one capped there: same plan, same nodes. Only the error
    for no plan differs, once the up-front capacity check has passed."""
    inst, _ = drawn
    workers = sum(job.workers for job in inst.jobs)

    def outcome(max_moves):
        return _outcome(lambda i, m: solve(i, time_limit=None, max_moves=m),
                        inst, max_moves)

    uncapped, capped = outcome(None), outcome(workers)
    if uncapped[0] is InfeasibleError and sum(inst.capacities) >= workers:
        assert capped == (MoveBudgetExceeded, None)
    else:
        assert capped == uncapped


@settings(max_examples=300, deadline=None)
@given(lockstep_instances())
def test_repair_keeps_the_rows_of_the_full_recompute(drawn):
    inst, _ = drawn
    walk = defrag._initial_walk(inst)
    assert defrag._repair_incumbent(inst, walk) == _ref_repair_incumbent(inst)
    # the repair works on copies: the walk the floor and the scan read
    # is left as it was
    assert walk == defrag._initial_walk(inst)


def _new_search(inst):
    """``solve``'s search over ``inst``, given the job order and the
    fragmented flags ``solve`` reads from the initial walk."""
    split = defrag._initial_walk(inst)[2]
    return defrag._Search(inst, None, defrag._job_order(inst, split), split)


@settings(max_examples=300, deadline=None)
@given(lockstep_instances())
def test_bound_tables_are_the_rebuilt_ones(drawn):
    inst, _ = drawn
    search = _new_search(inst)
    depths = len(search.order) + 1
    want = [_ref_bound_table(inst, search.order, depth)
            for depth in range(depths)]
    # no table until a search starts, then every depth's
    assert search.bound_tables == []
    assert search._bound_tables() == want


def _tabled_search(inst):
    """``solve``'s search over ``inst`` with the bound tables a search
    builds when it starts."""
    search = _new_search(inst)
    search.bound_tables = search._bound_tables()
    return search


def _root_bounds(inst):
    """The root node bound of ``solve``'s search and of the reference's:
    the disjoint-rack sum and the per-rack max."""
    base = list(inst.base_load)
    return (_tabled_search(inst)._remaining_lb(0, base),
            _RefSearch(inst, None)._remaining_lb(0, base))


@settings(max_examples=300, deadline=None)
@given(tp_unit_instances())
def test_disjoint_rack_bound_between_max_and_optimum(drawn):
    inst, _ = drawn
    disjoint_sum, per_rack_max = _root_bounds(inst)
    assert disjoint_sum >= per_rack_max
    try:
        optimum = brute_force_min_moves(inst)
    except InfeasibleError:
        return
    assert disjoint_sum <= optimum


def test_disjoint_rack_bound_adds_racks_without_shared_jobs():
    # each job breaks threshold 0 on its two racks: one move fixes each
    # job, and no move fixes both
    inst = _unit_instance((2, 2, 2, 2), 0, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert _root_bounds(inst) == (2, 1)
    assert brute_force_min_moves(inst) == 2


def _unit_instance(capacities, threshold, initial):
    return SolverInstance(
        len(capacities), tuple(capacities), threshold,
        tuple(SolverJob(key, sum(row)) for key, row in enumerate(initial)),
        tuple(tuple(row) for row in initial))


@settings(max_examples=300, deadline=None)
@given(lockstep_instances())
def test_root_floor_is_the_largest_root_rack_bound(drawn):
    inst, _ = drawn
    search = _tabled_search(inst)
    costs = [cost for cost, _ in search._rack_bounds(0, list(inst.base_load))]
    walk = defrag._initial_walk(inst)
    assert defrag._root_floor(inst, walk) == max(costs, default=0)


def test_settled_solve_builds_no_search(monkeypatch):
    searches = []

    class RecordingSearch(defrag._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(defrag, "_Search", RecordingSearch)
    # job 0 breaks threshold 0 on racks 0 and 1; the repair's one move
    # meets the floor, so nothing is searched and no search is built:
    # no job order, no bound table, no removal
    settled = _unit_instance((2, 2, 2), 0, [(1, 1, 0), (0, 0, 2)])
    plan = solve(settled, time_limit=None)
    assert (plan.move_count, plan.stats.nodes_explored) == (1, 0)
    assert searches == []
    # under a cap of 0 that move is no plan; the floor proves that none
    # fits before any bound table or removal is built
    with pytest.raises(MoveBudgetExceeded):
        solve(settled, time_limit=None, max_moves=0)
    assert searches[0].bound_tables == []
    assert searches[0].removal_cache == {}
    # the repair's two moves are over the floor of 1, so this one is
    # searched (the root's disjoint-rack sum of 2 prunes it), with a
    # table for every depth
    searched = _unit_instance((2, 2, 2, 2), 0, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert solve(searched, time_limit=None).stats.nodes_explored == 1
    assert len(searches[1].bound_tables) == 3
    # its root is bounded with the disjoint-rack sum
    assert _tabled_search(searched)._remaining_lb(0, [0] * 4) == 2


@st.composite
def one_move_instances(draw):
    """A compliant layout with one unit of a unit-size-1 job moved, so
    the floor is often 1 and the repair may miss it. The layout fits
    every rack, so the up-front checks always pass, though the moved
    unit may overflow the rack it lands on. Units of 1 or 2 workers,
    weighing 1 or their size."""
    num_racks = draw(st.integers(2, 5))
    # room for the first job's two workers or more
    capacities = draw(st.lists(st.integers(0, 8), min_size=num_racks,
                               max_size=num_racks).filter(
                                   lambda caps: sum(caps) >= 2))
    free = list(capacities)
    jobs, initial = [], []
    for key in range(draw(st.integers(1, 5))):
        # the first job can move one worker
        unit = 1 if key == 0 else draw(st.sampled_from((1, 1, 2)))
        row = [0] * num_racks
        for _ in range(draw(st.integers(2 if key == 0 else 1, 4))):
            fits = [t for t in range(num_racks) if free[t] >= unit]
            if not fits:
                break
            t = draw(st.sampled_from(fits))
            row[t] += 1
            free[t] -= unit
        if sum(row):
            weight = draw(st.sampled_from((1, unit)))
            jobs.append(SolverJob(key, sum(row), unit, weight))
            initial.append(row)
    # the layout is compliant: with the frozen load, each rack's ring
    # load is at the threshold, or one below it where ``slack`` says
    _, loads = ring_walk(jobs, initial, [0] * num_racks)
    threshold = max(loads) + draw(st.integers(0, 1))
    slack = draw(st.lists(st.booleans(), min_size=num_racks,
                          max_size=num_racks))
    base_load = [max(0, threshold - load - gap)
                 for load, gap in zip(loads, slack)]
    # a job of one unit would stay whole, with the loads unchanged
    movable = [i for i, job in enumerate(jobs)
               if job.unit_size == 1 and job.units >= 2]
    if movable:
        row = initial[draw(st.sampled_from(movable))]
        src = draw(st.sampled_from([t for t, v in enumerate(row) if v]))
        dst = draw(st.sampled_from(
            [t for t in range(num_racks) if t != src]))
        row[src] -= 1
        row[dst] += 1
    max_moves = draw(st.sampled_from((None, None, 0, 1, 2, 4)))
    return SolverInstance(num_racks, tuple(capacities), threshold,
                          tuple(jobs), tuple(map(tuple, initial)),
                          tuple(base_load)), max_moves


@settings(max_examples=300, deadline=None)
@given(one_move_instances())
# job 2, deeper in the order than job 0, covers the rack in excess, but
# its one move (rack 1 to rack 0) leaves rack 1 in excess; job 0's wins
@example((SolverInstance(
    3, (4, 2, 3), 2, (SolverJob(0, 4), SolverJob(1, 1, 2, 1), SolverJob(2, 3)),
    ((0, 1, 3), (1, 0, 0), (1, 2, 0)), (0, 1, 1)), None))
# rack 1 starts over capacity, so the one move must leave it: job 1's
# first move that passes the ring check, from rack 0 onto rack 1, makes
# it fuller, and its move from rack 1 onto rack 0 fits (the repair
# finds no fix)
@example((SolverInstance(
    4, (3, 0, 0, 1), 1, (SolverJob(0, 2), SolverJob(1, 2)),
    ((1, 0, 0, 1), (1, 1, 0, 0)), (0, 1, 1, 0)), None))
# a one-move plan exists, but the cap of 0 admits no move
@example((SolverInstance(
    3, (1, 1, 0), 1, (SolverJob(0, 2),), ((0, 1, 1),), (0, 0, 1)), 0))
# rack 0 starts two units over capacity, so no one move fits, though
# job 0's from rack 0 onto rack 1 passes the ring check: the search
# finds a 2-move plan
@example((SolverInstance(
    3, (0, 4, 4), 1, (SolverJob(0, 2), SolverJob(1, 1)),
    ((1, 1, 0), (1, 0, 0)), (1, 0, 0)), None))
# racks 0 and 1 each start one unit over capacity, and one move relieves
# only one of them: job 0's from rack 0 onto rack 2 passes the ring
# check, and the repair's 2-move consolidation onto rack 2 stands
@example((SolverInstance(
    3, (0, 0, 4), 1, (SolverJob(0, 2),), ((1, 1, 0),), (1, 0, 0)), None))
def test_one_move_scan_is_the_searchs_first_plan(drawn):
    """A solve the repair leaves above a floor of 1 returns the plan of
    the search run on anyway, with 0 nodes exactly when that plan moves
    one worker (or the repair settled it); otherwise it searches as the
    forced search does, node for node, raising with its node count.
    The scan alone, at every floor of 1 the cap leaves a move under, is
    the first one-move plan of a search with no incumbent."""
    inst, max_moves = drawn
    walk = defrag._initial_walk(inst)
    incumbent = defrag._repair_incumbent(inst, walk)
    floor = defrag._root_floor(inst, walk)
    if floor == 1 and (max_moves is None or max_moves >= 1):
        search = _new_search(inst)
        search.run(None, floor, max_moves)
        first = tuple(search.best) if search.bound == 1 else None
        assert defrag._one_move_plan(inst, search.order, walk) == first
    search = _new_search(inst)
    search.run(incumbent, floor, max_moves)
    try:
        plan = solve(inst, time_limit=None, max_moves=max_moves)
    except (InfeasibleError, MoveBudgetExceeded) as exc:
        assert search.best is None
        assert exc.nodes_explored == search.nodes
        return
    assert plan.target == tuple(search.best)
    assert (plan.move_count, plan.stats.optimal) == (search.bound, True)
    one_move = floor == search.bound == 1
    assert plan.stats.nodes_explored == (0 if one_move else search.nodes)


# Deep solves; the second has no repair incumbent to fall back on. It
# and the third pass the 1,024th node, where a deadline is read.
DEEP_WITH_INCUMBENT = _unit_instance(
    (5, 6, 6, 5, 4), 1,
    [(1, 2, 0, 1, 0), (1, 0, 0, 1, 0), (1, 2, 0, 0, 0), (0, 0, 0, 1, 2),
     (1, 1, 0, 0, 2), (1, 0, 1, 1, 0)])
DEEP_WITHOUT_INCUMBENT = _unit_instance(
    (3, 4, 5, 4, 6), 1,
    [(1, 2, 0, 0, 1), (0, 0, 1, 1, 1), (0, 0, 1, 0, 2), (0, 2, 0, 1, 1),
     (0, 0, 0, 2, 1), (2, 0, 2, 0, 0), (0, 0, 1, 0, 0)])
DEEPER_WITH_INCUMBENT = _unit_instance(
    (6, 5, 6, 6, 5), 1,
    [(0, 1, 0, 1, 2), (1, 1, 0, 1, 1), (1, 2, 0, 0, 0), (0, 1, 1, 0, 1),
     (0, 0, 1, 1, 1), (0, 0, 1, 1, 0)])
DEEP_INSTANCES = (DEEP_WITH_INCUMBENT, DEEP_WITHOUT_INCUMBENT,
                  DEEPER_WITH_INCUMBENT)
DEEP_WITH_TARGET = (
    (1, 2, 0, 1, 0), (2, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 0, 3, 0),
    (0, 0, 2, 0, 2), (0, 0, 3, 0, 0))
DEEP_WITHOUT_TARGET = (
    (0, 4, 0, 0, 0), (0, 0, 3, 0, 0), (0, 0, 0, 0, 3), (0, 0, 0, 1, 3),
    (0, 0, 0, 3, 0), (2, 0, 2, 0, 0), (1, 0, 0, 0, 0))
DEEPER_WITH_TARGET = (
    (0, 0, 0, 0, 4), (1, 1, 0, 1, 1), (0, 3, 0, 0, 0), (0, 0, 3, 0, 0),
    (0, 0, 0, 3, 0), (0, 0, 2, 0, 0))


@pytest.mark.parametrize("inst, max_moves, want", [
    (DEEP_WITH_INCUMBENT, None, (8, DEEP_WITH_TARGET, 594)),
    (DEEP_WITH_INCUMBENT, 16, (8, DEEP_WITH_TARGET, 594)),
    (DEEP_WITHOUT_INCUMBENT, None, (9, DEEP_WITHOUT_TARGET, 2304)),
    (DEEP_WITHOUT_INCUMBENT, 16, (9, DEEP_WITHOUT_TARGET, 2304)),
    (DEEPER_WITH_INCUMBENT, None, (8, DEEPER_WITH_TARGET, 1215)),
    (DEEPER_WITH_INCUMBENT, 16, (8, DEEPER_WITH_TARGET, 1215)),
])
def test_deep_solves_pinned(inst, max_moves, want):
    """Plan and node count of the deep instances: a change to the search
    that is meant to keep every row, node and plan keeps these."""
    plan = solve(inst, time_limit=None, max_moves=max_moves)
    assert plan.stats.optimal
    assert (plan.move_count, plan.target, plan.stats.nodes_explored) == want


def _seeded_tp_instance(rng):
    """A ``lockstep_instances`` shape from stdlib ``random``: TP units of
    1, 2, 4 or 8 workers weighing their unit size, capacities drawn per
    rack, initial rows that may overflow them, and frozen ring load up
    to the threshold."""
    num_racks = rng.randint(2, 5)
    capacities = tuple(rng.randint(0, 24) for _ in range(num_racks))
    overflow = rng.random() < 0.3
    free = list(capacities)
    jobs, initial = [], []
    for key in range(rng.randint(1, 5)):
        unit = rng.choice((1, 2, 4, 8))
        row = [0] * num_racks
        for _ in range(rng.randint(1, 4)):
            fits = [t for t in range(num_racks)
                    if overflow or free[t] >= unit]
            if not fits:
                break
            t = rng.choice(fits)
            row[t] += 1
            free[t] -= unit
        if sum(row):
            jobs.append(SolverJob(key, sum(row), unit, unit))
            initial.append(tuple(row))
    if not jobs:
        jobs.append(SolverJob(0, 1))
        initial.append((1,) + (0,) * (num_racks - 1))
    threshold = rng.randint(1, 10)
    base_load = tuple(rng.randint(0, threshold) for _ in range(num_racks))
    return SolverInstance(num_racks, capacities, threshold, tuple(jobs),
                          tuple(initial), base_load)


def test_seeded_batch_plans_pinned():
    """The plans of 2,000 seeded instances, each solved uncapped and at a
    cap of 0 to 8 moves: a change to the search that is meant to keep
    every plan keeps this digest, whatever it does to node counts. The
    node total is a separate pin, for changes meant to keep every row."""
    rng = random.Random(27)
    outcomes = []
    nodes = raised_nodes = 0
    for _ in range(2000):
        inst = _seeded_tp_instance(rng)
        cap = rng.randint(0, 8)
        for max_moves in (None, cap):
            try:
                plan = solve(inst, time_limit=None, max_moves=max_moves)
            except (InfeasibleError, MoveBudgetExceeded) as exc:
                outcomes.append(type(exc).__name__)
                raised_nodes += exc.nodes_explored
            else:
                outcomes.append([plan.target, plan.move_count])
                nodes += plan.stats.nodes_explored
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == ("d5b4dc91bf5159a83d0eb3aba733bdf4"
                      "9d0ac4878c8a0854b0f5da86e6cf827e")
    # the nodes of the solves that return a plan: a change meant to keep
    # every row the search generates keeps this total
    assert nodes == 8591
    # the nodes of the 1,770 solves that raise, which no one-move plan
    # settles: the same kind of change keeps this total too
    assert raised_nodes == 2603


def _count_addition_rows(monkeypatch) -> list[int]:
    """Wrap ``defrag._additions`` to count, in the returned one-item
    list, the rows it yields; a list it returns yields all of its rows
    at once, since they are built before the first is read."""
    yielded = [0]
    additions = defrag._additions

    def counting(*args):
        rows = additions(*args)
        if isinstance(rows, list):
            yielded[0] += len(rows)
            yield from rows
            return
        for row in rows:
            yielded[0] += 1
            yield row

    monkeypatch.setattr(defrag, "_additions", counting)
    return yielded


@pytest.mark.parametrize("inst", [DEEPER_WITH_INCUMBENT,
                                  DEEP_WITHOUT_INCUMBENT])
def test_deadline_stops_search_at_first_node_check(inst, monkeypatch):
    entered = set()
    dfs = defrag._Search._dfs

    def recording_dfs(self, *args):
        entered.add(self.nodes)
        return dfs(self, *args)

    with monkeypatch.context() as m:
        m.setattr(defrag._Search, "_dfs", recording_dfs)
        assert solve(inst, time_limit=None).stats.nodes_explored > 1024
    # Uncapped, the 1,024th node of the first is a row its parent prunes
    # without descending, so the clock read in the parent's loop is what
    # stops that search; the second enters its 1,024th node.
    assert (1024 in entered) == (inst is DEEP_WITHOUT_INCUMBENT)
    yielded = _count_addition_rows(monkeypatch)
    reads = []

    def clock():
        # the deadline passes right after solve reads its start time
        reads.append(None)
        return 0.0 if len(reads) == 1 else 1e9

    monkeypatch.setattr(defrag.time, "monotonic", clock)
    try:
        plan = solve(inst, time_limit=10.0)
    except SolverTimeout as exc:
        assert inst is DEEP_WITHOUT_INCUMBENT
        # the raised solve counts its nodes as a returned one does
        assert exc.nodes_explored == 1024
    else:
        assert inst is DEEPER_WITH_INCUMBENT
        assert_plan_valid(inst, plan)
        assert not plan.stats.optimal
        # one node per row bounded, and the check reads the clock on the
        # 1,024th
        assert plan.stats.nodes_explored == 1024
    # start, the check at the 1,024th node, elapsed
    assert len(reads) == 3
    # the check stops a row list midway: no row after the 1,024th node
    # was built
    assert yielded[0] == 1023


@pytest.mark.parametrize("inst", DEEP_INSTANCES)
def test_every_row_built_is_a_node(inst, monkeypatch):
    """Rows are built on demand: every row yielded is bounded as a node,
    and the root is the one node that is not a row."""
    yielded = _count_addition_rows(monkeypatch)
    plan = solve(inst, time_limit=None)
    assert yielded[0] == plan.stats.nodes_explored - 1


@pytest.mark.parametrize("inst", DEEP_INSTANCES)
def test_default_solve_ignores_the_clock(inst, monkeypatch):
    """With no time limit given, a clock that jumps by a day on every
    read changes nothing: the plan is the proven optimum."""
    want = solve(inst, time_limit=None)
    day = iter(range(0, 10**9, 86_400))
    monkeypatch.setattr(defrag.time, "monotonic", lambda: float(next(day)))
    plan = solve(inst)
    assert plan.stats.optimal
    assert (plan.move_count, plan.target, plan.stats.nodes_explored) == (
        want.move_count, want.target, want.stats.nodes_explored)
