import dataclasses
import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from defragsim import controller as controller_module
from defragsim.controller import (
    SKIP_REASONS, ControllerConfig, DefragController, ResolutionError,
    build_instance, resolve_plan, stage_rows,
)
from defragsim.defrag import (
    SolverInstance, SolverTimeout, is_fragmented, ring_loads,
)
from defragsim.fragmentation import fragmentation_degree
from defragsim.jobmodel import WorkerMove
from defragsim.scheduler import Placement
from defragsim.topology import ClusterTopology
from tests.test_workload import make_job, place_on_racks

TOPO = ClusterTopology(4, 4, 8, 4, 400e9, 400e9)


def apply_moves(placement, moves):
    """Commit a batch atomically: release every mover, then reassign."""
    targets = [(mv.worker, mv.dst_rack, mv.dst_host) for mv in moves]
    for worker, _, _ in targets:
        placement.unassign(worker)
    for worker, rack, host in targets:
        placement.assign(worker, rack, host)


def outcomes(controller):
    """The nonzero outcome counts; every reason is always a key."""
    assert set(controller.outcomes) == {"applied", *SKIP_REASONS}
    return {k: v for k, v in controller.outcomes.items() if v}


def split_job_placement():
    """One 6-worker DP job split 3/3 over racks 0 and 1 of TOPO."""
    placement = Placement(TOPO)
    job = make_job(job_id=1, workers=6, dp=6)
    for i, rack in enumerate([0, 0, 0, 1, 1, 1]):
        placement.assign((1, i), rack, 0)
    placement.jobs[1] = job
    return placement


def test_stage_rows_pure_dp():
    job = make_job(job_id=1, workers=8, dp=8)
    placement = place_on_racks(job, [0] * 5 + [1] * 3)
    placement.jobs[1] = job
    stages = stage_rows(placement)
    assert len(stages.jobs) == 1
    assert stages.jobs[0].key == (1, 0)
    assert stages.jobs[0].unit_size == 1 and stages.jobs[0].ring_weight == 1
    assert stages.rows[0] == (5, 3, 0, 0)


def test_stage_rows_tp_and_pp():
    job = make_job(job_id=2, workers=32, dp=2, tp=8, pp=2)
    placement = Placement(TOPO)
    # stage 0 split across racks 0/1, stage 1 whole on rack 2
    rack_of_unit = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 2}
    next_host = {}
    for (stage, dp), rack in rack_of_unit.items():
        host = next_host.get(rack, 0)
        for tp in range(8):
            placement.assign((2, job.worker_index(stage, dp, tp)), rack, host)
        next_host[rack] = host + 1
    placement.jobs[2] = job
    stages = stage_rows(placement)
    assert [j.key for j in stages.jobs] == [(2, 0), (2, 1)]
    assert all(j.units == 2 and j.unit_size == 8 and j.ring_weight == 8
               for j in stages.jobs)
    assert stages.rows == [(1, 1, 0, 0), (0, 0, 2, 0)]


def test_build_instance_none_when_compliant():
    job = make_job(job_id=1, workers=8, dp=8)
    placement = place_on_racks(job, [0] * 8)
    placement.jobs[1] = job
    assert build_instance(placement, threshold=2) is None


def chained_placement():
    """Jobs 1-3 split over racks 0/1, 1/2 and 2/3, and job 4 whole on
    rack 3; racks 1 and 2 carry two fragmented jobs each."""
    placement = Placement(TOPO)
    for job_id, racks in ((1, [0, 1]), (2, [1, 2]), (3, [2, 3])):
        job = make_job(job_id=job_id, workers=2, dp=2)
        for i, rack in enumerate(racks):
            placement.assign((job_id, i), rack, 0)
        placement.jobs[job_id] = job
    whole = make_job(job_id=4, workers=4, dp=4)
    for i in range(4):
        placement.assign((4, i), 3, 1)
    placement.jobs[4] = whole
    return placement


def test_build_instance_reduction_freezes_remote_jobs():
    placement = chained_placement()
    # with threshold 1 every fragmented stage is movable but job 4
    # (whole, on rack 3) is frozen
    inst = build_instance(placement, threshold=1)
    assert {j.key for j in inst.jobs} == {(1, 0), (2, 0), (3, 0)}
    assert inst.capacities[3] == TOPO.gpus_per_rack - 4


def test_prebuilt_stage_rows_give_the_same_results():
    placement = chained_placement()
    stages = stage_rows(placement)
    assert fragmentation_degree(placement, stages) \
        == fragmentation_degree(placement)
    for threshold in (1, 2):
        assert build_instance(placement, threshold,
                              stages=stage_rows(placement)) \
            == build_instance(placement, threshold)
    assert build_instance(placement, 1, stages=stages) is not None
    assert build_instance(placement, 2, stages=stages) is None


def three_pass_instance(placement, threshold):
    """The reduction written out the long way: ring loads over every
    stage, the movable filter, then capacities and ring loads over the
    frozen stages."""
    stages = stage_rows(placement)
    num_racks = placement.topology.num_racks
    loads = ring_loads(stages.jobs, stages.rows, [0] * num_racks)
    violating = {t for t in range(num_racks) if loads[t] > threshold}
    if not violating:
        return None
    movable = [i for i, row in enumerate(stages.rows)
               if is_fragmented(row) and any(row[t] for t in violating)]
    frozen = [i for i in range(len(stages.jobs)) if i not in movable]
    capacities = [placement.topology.gpus_per_rack] * num_racks
    for i in frozen:
        for t, v in enumerate(stages.rows[i]):
            capacities[t] -= stages.jobs[i].unit_size * v
    base_load = ring_loads([stages.jobs[i] for i in frozen],
                           [stages.rows[i] for i in frozen], [0] * num_racks)
    return SolverInstance(
        num_racks=num_racks, capacities=tuple(capacities),
        threshold=threshold,
        jobs=tuple(stages.jobs[i] for i in movable),
        initial=tuple(stages.rows[i] for i in movable),
        base_load=tuple(base_load))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_reduction_matches_three_passes(data):
    """build_instance's one pass over the rows gives the instance the
    three-pass reduction gives, on random TP and PP placements."""
    gph = data.draw(st.sampled_from((1, 2, 4, 8)), label="gpus_per_host")
    topo = ClusterTopology(data.draw(st.integers(1, 5), label="racks"),
                           data.draw(st.integers(1, 3), label="hosts"),
                           gph, 2, 400e9, 400e9)
    placement = Placement(topo)
    for job_id in range(data.draw(st.integers(0, 10), label="jobs")):
        tp = data.draw(st.sampled_from([t for t in (1, 2, 4) if t <= gph]))
        dp, pp = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        job = make_job(job_id=job_id, workers=dp * tp * pp, dp=dp, tp=tp,
                       pp=pp)
        free = [placement.rack_free_units(r, tp)
                for r in range(topo.num_racks)]
        if sum(free) < dp * pp:
            continue
        racks = []
        for _ in range(dp * pp):
            rack = data.draw(st.sampled_from(
                [r for r in range(topo.num_racks) if free[r]]))
            free[rack] -= 1
            racks.append(rack)
        placement.add_job(job, racks)
    threshold = data.draw(st.one_of(
        st.integers(0, 12), st.floats(0, 12), st.just(math.inf)),
        label="threshold")
    expected = three_pass_instance(placement, threshold)
    assert build_instance(placement, threshold) == expected
    assert build_instance(placement, threshold,
                          stages=stage_rows(placement)) == expected


def test_controller_restores_threshold():
    placement = split_job_placement()
    controller = DefragController(placement, ControllerConfig(threshold=0))
    decision = controller.check()
    assert decision is not None
    assert decision.stats.move_count == 3  # gather the smaller half
    assert len(decision.moves) == 3
    assert outcomes(controller) == {"applied": 1}
    apply_moves(placement, decision.moves)
    assert fragmentation_degree(placement).max_degree == 0
    # placement is now compliant: controller goes quiet
    assert controller.check() is None


def test_controller_moves_whole_tp_units():
    topo = ClusterTopology(2, 2, 8, 4, 400e9, 400e9)
    placement = Placement(topo)
    job = make_job(job_id=1, workers=16, dp=2, tp=8)
    for dp, rack in enumerate([0, 1]):
        for tp in range(8):
            placement.assign((1, job.worker_index(0, dp, tp)), rack, 0)
    placement.jobs[1] = job
    controller = DefragController(placement, ControllerConfig(threshold=7))
    decision = controller.check()
    assert decision is not None
    assert decision.stats.move_count == 8  # one whole TP unit
    dst_hosts = {(mv.dst_rack, mv.dst_host) for mv in decision.moves}
    assert len(dst_hosts) == 1  # the unit lands on a single host
    apply_moves(placement, decision.moves)
    report = fragmentation_degree(placement)
    assert report.max_degree == 0


def test_controller_disabled_and_infeasible_are_quiet():
    placement = Placement(TOPO)
    job = make_job(job_id=1, workers=2, dp=2)
    placement.assign((1, 0), 0, 0)
    placement.assign((1, 1), 1, 0)
    placement.jobs[1] = job
    off = DefragController(placement, ControllerConfig(), enabled=False)
    assert off.check() is None

    # fill the cluster so nothing can move, then demand the impossible
    small = ClusterTopology(2, 1, 2, 2, 400e9, 400e9)
    full = Placement(small)
    j1 = make_job(job_id=1, workers=3, dp=3)
    j2 = make_job(job_id=2, workers=1, dp=1)
    full.assign((1, 0), 0, 0)
    full.assign((1, 1), 0, 0)
    full.assign((1, 2), 1, 0)
    full.assign((2, 0), 1, 0)
    full.jobs[1], full.jobs[2] = j1, j2
    stuck = DefragController(full, ControllerConfig(threshold=0))
    assert stuck.check() is None
    assert stuck.skipped_infeasible == 1
    # under the move cap the solver cannot tell "no plan" from "no plan
    # within the cap", so the stuck instance counts as over budget
    assert outcomes(stuck) == {"budget": 1}
    # the same instance is solved again and counts its own reason
    assert stuck.check() is None
    assert outcomes(stuck) == {"budget": 2}
    assert stuck.skipped_infeasible == 2
    uncapped = DefragController(full, ControllerConfig(threshold=0,
                                                       max_moves=None))
    assert uncapped.check() is None
    assert outcomes(uncapped) == {"infeasible": 1}


def test_resolve_plan_respects_host_capacity():
    placement = Placement(TOPO)
    job = make_job(job_id=1, workers=6, dp=6)
    for i, rack in enumerate([0, 0, 0, 0, 1, 1]):
        placement.assign((1, i), rack, i % 4)
    placement.jobs[1] = job
    controller = DefragController(placement, ControllerConfig(threshold=0))
    decision = controller.check()
    apply_moves(placement, decision.moves)
    for rack in range(TOPO.num_racks):
        for host in range(TOPO.hosts_per_rack):
            assert placement.free_slots(rack, host) >= 0


def test_resolve_plan_pairs_leaving_units_with_arriving_racks_in_order():
    # Job 1 (4 DP ranks) shares racks 0 and 1 with job 2, whose TP units
    # weigh 4 each, so both racks are over threshold 4. Whole jobs 5 and
    # 6 fill racks 0 and 1, and jobs 3 and 4 leave two slots on each of
    # racks 2 and 3, so the only minimum plan moves job 1 from row
    # [3, 1, 0, 0] to [0, 0, 2, 2].
    topo = ClusterTopology(4, 2, 4, 4, 400e9, 400e9)
    placement = Placement(topo)
    frag = make_job(job_id=1, workers=4, dp=4)
    for dp, rack in enumerate([0, 1, 0, 0]):
        placement.assign((1, frag.worker_index(0, dp, 0)), rack, 1)
    wide = make_job(job_id=2, workers=8, dp=2, tp=4)
    for dp in range(2):
        for tp in range(4):
            placement.assign((2, wide.worker_index(0, dp, tp)), dp, 0)
    placement.jobs[1], placement.jobs[2] = frag, wide
    for job_id, rack, hosts in ((3, 2, [0, 0, 0, 1, 1, 1]),
                                (4, 3, [0, 0, 0, 0, 1, 1]),
                                (5, 0, [1]), (6, 1, [1, 1, 1])):
        placement.jobs[job_id] = make_job(job_id=job_id, workers=len(hosts),
                                          dp=len(hosts))
        for i, host in enumerate(hosts):
            placement.assign((job_id, i), rack, host)
    controller = DefragController(placement, ControllerConfig(threshold=4))
    decision = controller.check()
    assert decision.stats.move_count == 4
    # leaving, racks in order and lowest dp rank first: 0, 2, 3 from
    # rack 0, then 1 from rack 1; arriving: rack 2 twice, rack 3 twice.
    # In worker order, each unit takes the fitting host with least room.
    assert decision.moves == [
        WorkerMove((1, 0), 2, 0), WorkerMove((1, 1), 3, 1),
        WorkerMove((1, 2), 2, 1), WorkerMove((1, 3), 3, 1)]
    apply_moves(placement, decision.moves)
    assert fragmentation_degree(placement).max_degree <= 4


def test_controller_solves_only_the_reduced_instance(monkeypatch):
    # Gathering the fragmented job F needs the room that whole job W
    # holds. The instance freezes W, so it has no plan: evicting W is
    # not a move the controller considers, and it solves once.
    topo = ClusterTopology(3, 1, 4, 2, 400e9, 400e9)
    placement = Placement(topo)
    for job_id, racks in ((1, [0]), (2, [0, 0, 0, 1]), (3, [1, 1, 1]),
                          (4, [2, 2, 2, 2])):
        job = make_job(job_id=job_id, workers=len(racks), dp=len(racks))
        for i, rack in enumerate(racks):
            placement.assign((job_id, i), rack, 0)
        placement.jobs[job_id] = job
    builds, solved = [], []
    real_rows = controller_module.stage_rows
    real_solve = controller_module.solve

    def rows(placement):
        builds.append(placement)
        return real_rows(placement)

    def solve(instance, **kwargs):
        solved.append(instance)
        return real_solve(instance, **kwargs)

    monkeypatch.setattr(controller_module, "stage_rows", rows)
    monkeypatch.setattr(controller_module, "solve", solve)
    # the cap turns "no plan at all" into "none within the cap"
    for max_moves, reason in ((16, "budget"), (None, "infeasible")):
        builds.clear()
        solved.clear()
        controller = DefragController(
            placement, ControllerConfig(threshold=0, max_moves=max_moves))
        assert controller.check() is None
        assert builds == [placement]
        [instance] = solved
        assert [job.key for job in instance.jobs] == [(2, 0)]
        assert outcomes(controller) == {reason: 1}


def test_controller_counts_move_cap_as_budget():
    # the 3-move plan of test_controller_restores_threshold is over a
    # 2-move cap, and the split job is the instance's only stage
    controller = DefragController(
        split_job_placement(), ControllerConfig(threshold=0, max_moves=2))
    assert controller.check() is None
    assert outcomes(controller) == {"budget": 1}
    assert controller.skipped_infeasible == 1


def assert_skip_logged_at_debug(caplog):
    """A skip says why at DEBUG, not as a warning: its outcome count is
    what reports it."""
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("defrag skipped: ")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("name, patch, reason", [
    ("solve", _raise(SolverTimeout("time limit")), "timeout"),
    ("resolve_plan", _raise(ResolutionError("no host")), "resolution"),
])
def test_controller_counts_failures_by_reason(monkeypatch, caplog, name,
                                              patch, reason):
    caplog.set_level(logging.DEBUG)
    monkeypatch.setattr(controller_module, name, patch)
    controller = DefragController(split_job_placement(),
                                  ControllerConfig(threshold=0))
    assert controller.check() is None
    assert outcomes(controller) == {reason: 1}
    assert_skip_logged_at_debug(caplog)
    assert controller.check() is None
    assert outcomes(controller) == {reason: 2}
    assert controller.skipped_infeasible == 2


def test_controller_counts_unpackable_plan_as_resolution():
    # TP-8 jobs 1 and 2 each put one unit on rack 1 (hosts 0 and 1) and
    # the other on host 0 of rack 2 or 3, so rack 1's ring load of 16 is
    # over threshold 8. TP-1 fillers hold host 1 of racks 2 and 3, and
    # one more is split 4/4 over rack 0's hosts. The only plan moves a
    # TP-8 unit onto rack 0, which has 8 free slots but no free host.
    topo = ClusterTopology(4, 2, 8, 2, 400e9, 400e9)
    placement = Placement(topo)
    for job_id, far_rack in ((1, 2), (2, 3)):
        job = make_job(job_id=job_id, workers=16, dp=2, tp=8)
        for dp, (rack, host) in enumerate([(1, job_id - 1), (far_rack, 0)]):
            for tp in range(8):
                placement.assign((job_id, job.worker_index(0, dp, tp)),
                                 rack, host)
        placement.jobs[job_id] = job
    for job_id, hosts in ((3, [(2, 1)] * 8), (4, [(3, 1)] * 8),
                          (5, [(0, 0)] * 4 + [(0, 1)] * 4)):
        placement.jobs[job_id] = make_job(job_id=job_id, workers=8, dp=8)
        for i, (rack, host) in enumerate(hosts):
            placement.assign((job_id, i), rack, host)
    controller = DefragController(placement, ControllerConfig(threshold=8))
    assert controller.check() is None
    assert outcomes(controller) == {"resolution": 1}
    # an unchanged placement is solved again and fails the same way
    assert controller.check() is None
    assert outcomes(controller) == {"resolution": 2}


def test_controller_counts_unproven_plan_as_not_optimal(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG)
    real_solve = controller_module.solve

    def unproven_solve(instance, **kwargs):
        plan = real_solve(instance, **kwargs)
        return dataclasses.replace(
            plan, stats=dataclasses.replace(plan.stats, optimal=False))

    monkeypatch.setattr(controller_module, "solve", unproven_solve)
    controller = DefragController(split_job_placement(),
                                  ControllerConfig(threshold=0))
    assert controller.check() is None
    assert outcomes(controller) == {"not_optimal": 1}
    assert controller.skipped_infeasible == 1
    assert_skip_logged_at_debug(caplog)
