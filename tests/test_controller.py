from defragsim.controller import (
    ControllerConfig, DefragController, build_instance, resolve_plan,
    stage_rows,
)
from defragsim.fragmentation import fragmentation_degree
from defragsim.scheduler import Placement
from defragsim.topology import make_two_tier
from tests.test_workload import make_job, place_on_racks

TOPO = make_two_tier(4, 4, 8, 4, 400e9, 400e9, 4)


def apply_moves(placement, moves):
    """Commit a batch atomically: release every mover, then reassign."""
    targets = [(mv.worker, mv.dst_rack, mv.dst_host) for mv in moves]
    for worker, _, _ in targets:
        placement.unassign(worker)
    for worker, rack, host in targets:
        placement.assign(worker, rack, host)


def test_stage_rows_pure_dp():
    job = make_job(job_id=1, workers=8, dp=8)
    placement = place_on_racks(job, [0] * 5 + [1] * 3)
    placement.jobs[1] = job
    stages = stage_rows(placement)
    assert len(stages.jobs) == 1
    assert stages.jobs[0].key == (1, 0)
    assert stages.jobs[0].unit_size == 1 and stages.jobs[0].ring_weight == 1
    assert stages.rows[0] == [5, 3, 0, 0]


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
    assert stages.rows == [[1, 1, 0, 0], [0, 0, 2, 0]]


def test_build_instance_none_when_compliant():
    job = make_job(job_id=1, workers=8, dp=8)
    placement = place_on_racks(job, [0] * 8)
    placement.jobs[1] = job
    assert build_instance(placement, threshold=2) is None


def test_build_instance_reduction_freezes_remote_jobs():
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
    # rack 1 carries two fragmented jobs; with threshold 1 every
    # fragmented stage is movable but job 4 (whole, on rack 3) is frozen
    inst = build_instance(placement, threshold=1)
    assert {j.key for j in inst.jobs} == {(1, 0), (2, 0), (3, 0)}
    assert inst.capacities[3] == TOPO.gpus_per_rack - 4


def test_controller_restores_threshold():
    placement = Placement(TOPO)
    job = make_job(job_id=1, workers=6, dp=6)
    for i, rack in enumerate([0, 0, 0, 1, 1, 1]):
        placement.assign((1, i), rack, 0)
    placement.jobs[1] = job
    controller = DefragController(placement, ControllerConfig(threshold=0))
    decision = controller.check()
    assert decision is not None
    assert decision.plan.move_count == 3  # gather the smaller half
    assert len(decision.moves) == 3
    apply_moves(placement, decision.moves)
    assert fragmentation_degree(placement).max_degree == 0
    # placement is now compliant: controller goes quiet
    assert controller.check() is None


def test_controller_moves_whole_tp_units():
    topo = make_two_tier(2, 2, 8, 4, 400e9, 400e9, 4)
    placement = Placement(topo)
    job = make_job(job_id=1, workers=16, dp=2, tp=8)
    for dp, rack in enumerate([0, 1]):
        for tp in range(8):
            placement.assign((1, job.worker_index(0, dp, tp)), rack, 0)
    placement.jobs[1] = job
    controller = DefragController(placement, ControllerConfig(threshold=7))
    decision = controller.check()
    assert decision is not None
    assert decision.plan.move_count == 8  # one whole TP unit
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
    off = DefragController(placement, ControllerConfig(enabled=False))
    assert off.check() is None

    # fill the cluster so nothing can move, then demand the impossible
    small = make_two_tier(2, 1, 2, 2, 400e9, 400e9, 2)
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
