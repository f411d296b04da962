from collections import Counter

import pytest

from defragsim.scheduler import Scheduler, SchedulerError
from defragsim.topology import make_two_tier
from tests.test_workload import make_job

# 2 racks x 8 hosts x 1 GPU: host-granular like the motivating example
TOPO = make_two_tier(2, 8, 1, 2, 400e9, 400e9, 2)


def workers_of(placement, job_id):
    return [(job_id, i)
            for i in range(placement.jobs[job_id].num_workers)]


def racks_used(scheduler, job_id):
    return {scheduler.placement.locate(w).rack
            for w in workers_of(scheduler.placement, job_id)}


def free_gpus(placement):
    topo = placement.topology
    return sum(placement.free_slots(r, h) for r in range(topo.num_racks)
               for h in range(topo.hosts_per_rack))


def test_fewest_available_fitting_rack():
    sched = Scheduler(TOPO)
    # rack 0: 3 free hosts left, rack 1: 8 free
    sched.placement.add_job(make_job(job_id=100, workers=5, dp=5), [0] * 5)
    assert sched.place_job(make_job(job_id=1, workers=3, dp=3))
    assert racks_used(sched, 1) == {0}


def test_split_across_racks_largest_free_first():
    topo = make_two_tier(3, 4, 1, 2, 400e9, 400e9, 2)
    sched = Scheduler(topo)
    sched.placement.add_job(make_job(job_id=100, workers=2, dp=2), [0, 0])
    sched.placement.add_job(make_job(job_id=101, workers=3, dp=3), [1] * 3)
    # free: rack0=2, rack1=1, rack2=4; job of 6 fits nowhere whole
    assert sched.place_job(make_job(job_id=1, workers=6, dp=6))
    w = Counter(sched.placement.locate(worker).rack
                for worker in workers_of(sched.placement, 1))
    assert w[2] == 4  # roomiest rack taken whole
    assert w[0] == 2  # then the remainder fits rack 0 exactly


def test_empty_cluster_single_rack_job_unfragmented():
    sched = Scheduler(TOPO)
    assert sched.place_job(make_job(job_id=1, workers=4, dp=4))
    assert racks_used(sched, 1) == {0}


def test_queue_when_full():
    sched = Scheduler(TOPO)
    assert sched.place_job(make_job(job_id=1, workers=16, dp=16))
    assert not sched.place_job(make_job(job_id=2, workers=2, dp=2))
    assert len(sched.queue) == 1


def test_release_restores_capacity():
    sched = Scheduler(TOPO)
    job = make_job(job_id=1, workers=6, dp=6)
    before = free_gpus(sched.placement)
    sched.place_job(job)
    assert free_gpus(sched.placement) == before - 6
    sched.release_job(1)
    assert free_gpus(sched.placement) == before


def test_release_unknown_job():
    sched = Scheduler(TOPO)
    with pytest.raises(SchedulerError):
        sched.release_job(99)


def test_queued_job_admitted_on_release():
    sched = Scheduler(TOPO)
    sched.place_job(make_job(job_id=1, workers=16, dp=16))
    sched.place_job(make_job(job_id=2, workers=4, dp=4))
    admitted = sched.release_job(1)
    assert [j.job_id for j in admitted] == [2]
    assert 2 in sched.placement


def test_fifo_no_backfill():
    sched = Scheduler(TOPO)
    sched.place_job(make_job(job_id=1, workers=15, dp=15))
    sched.place_job(make_job(job_id=2, workers=8, dp=8))  # queued (head)
    # fits right now, but must wait behind job 2
    assert not sched.place_job(make_job(job_id=3, workers=1, dp=1))
    assert [j.job_id for j in sched.queue] == [2, 3]


def test_capacity_invariant_after_operations():
    sched = Scheduler(TOPO)
    cap = TOPO.gpus_per_rack
    jobs = [make_job(job_id=i, workers=3, dp=3) for i in range(5)]
    for job in jobs:
        sched.place_job(job)
        placement = sched.placement
        w = Counter(placement.locate(worker).rack
                    for job_id in placement.jobs
                    for worker in workers_of(placement, job_id))
        for rack in range(TOPO.num_racks):
            free = sum(placement.free_slots(rack, h)
                       for h in range(TOPO.hosts_per_rack))
            assert w[rack] == cap - free <= cap


def test_whole_host_granularity_for_full_tp():
    topo = make_two_tier(2, 2, 8, 2, 400e9, 400e9, 2)
    sched = Scheduler(topo)
    job = make_job(job_id=1, workers=16, dp=2, tp=8)
    assert sched.place_job(job)
    hosts = {}
    for w in workers_of(sched.placement, 1):
        gpu = sched.placement.locate(w)
        hosts.setdefault((gpu.rack, gpu.host), 0)
        hosts[(gpu.rack, gpu.host)] += 1
    assert all(count == 8 for count in hosts.values())


def test_tp_group_never_crosses_host():
    topo = make_two_tier(2, 4, 8, 2, 400e9, 400e9, 2)
    sched = Scheduler(topo)
    job = make_job(job_id=1, workers=16, dp=2, tp=4, pp=2)
    assert sched.place_job(job)
    for unit_start in range(0, 16, 4):
        locs = {(sched.placement.locate((1, unit_start + k)).rack,
                 sched.placement.locate((1, unit_start + k)).host)
                for k in range(4)}
        assert len(locs) == 1
