import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from defragsim.defrag import (
    InfeasibleError, MigrationPlan, MoveBudgetExceeded, OracleTooLargeError,
    SolverInstance, SolverJob, brute_force_min_moves, ring_loads, solve,
    worker_moves,
)


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
    return SolverInstance.uniform(C, lam, jobs, initial)


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
    # applying the move list to the initial placement yields the target
    state = [list(row) for row in instance.initial]
    index = {job.key: i for i, job in enumerate(instance.jobs)}
    for mv in plan.moves:
        i = index[mv.key]
        units = mv.workers // instance.jobs[i].unit_size
        state[i][mv.from_rack] -= units
        state[i][mv.to_rack] += units
    assert tuple(tuple(r) for r in state) == plan.target
    assert sum(mv.workers for mv in plan.moves) == plan.move_count


def test_compliant_instance_zero_moves():
    inst = SolverInstance.uniform(4, 2, [SolverJob(0, 4), SolverJob(1, 3)],
                                  [[4, 0], [0, 3]])
    plan = solve(inst)
    assert plan.move_count == 0
    assert plan.target == inst.initial
    assert plan.stats.optimal


def test_single_split_job_one_move():
    inst = SolverInstance.uniform(2, 0, [SolverJob(0, 2)], [[1, 1]])
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
    inst = SolverInstance.uniform(4, 2, jobs, initial)
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.stats.optimal
    assert plan.move_count == 4


def test_oracle_compliant_is_zero():
    inst = SolverInstance.uniform(4, 2, [SolverJob(0, 4)], [[0, 4, 0]])
    assert brute_force_min_moves(inst) == 0


def test_oracle_guard():
    jobs = [SolverJob(k, 16) for k in range(8)]
    initial = [[2] * 8 for _ in range(8)]
    inst = SolverInstance.uniform(16, 2, jobs, initial)
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
                        inst = SolverInstance.uniform(
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
    inst = SolverInstance.uniform(32, 7, jobs, [[2, 2]])
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.move_count == 16  # two TP units of 8 workers re-unified
    # with threshold 8 the split placement is already compliant
    inst_ok = SolverInstance.uniform(32, 8, jobs, [[2, 2]])
    assert solve(inst_ok).move_count == 0


def test_infeasible_raises():
    # two jobs larger than any rack on a full 3-rack cluster, threshold 1:
    # both jobs always fragment and must overlap on some rack
    jobs = [SolverJob(0, 3), SolverJob(1, 3)]
    inst = SolverInstance.uniform(2, 1, jobs, [[2, 1, 0], [0, 1, 2]])
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
    with pytest.raises(InfeasibleError):
        solve(inst, time_limit=None, max_moves=max_moves)
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
    assert ring_loads(jobs, rows, [0, 0, 0]) == [8, 9, 1]
    assert ring_loads(jobs, rows, [2, 0, 5]) == [10, 9, 6]


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
    inst = SolverInstance.uniform(4, 0, jobs, initial)
    plan = solve(inst)
    assert_plan_valid(inst, plan)
    assert plan.move_count == brute_force_min_moves(inst)
    assert plan.move_count == 2  # evict the 1-worker job, gather "frag"


def test_stats_populated():
    inst = SolverInstance.uniform(2, 0, [SolverJob(0, 2)], [[1, 1]])
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
    loads = ring_loads(jobs, initial, [0] * num_racks)
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
