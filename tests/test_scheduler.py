from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from defragsim.fragmentation import stage_rows
from defragsim.scheduler import Placement, Scheduler, SchedulerError, plan_racks
from defragsim.topology import ClusterTopology, GpuId
from tests.test_workload import make_job

# 2 racks x 8 hosts x 1 GPU: host-granular like the motivating example
TOPO = ClusterTopology(2, 8, 1, 2, 400e9, 400e9)


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
    topo = ClusterTopology(3, 4, 1, 2, 400e9, 400e9)
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
    topo = ClusterTopology(2, 2, 8, 2, 400e9, 400e9)
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
    topo = ClusterTopology(2, 4, 8, 2, 400e9, 400e9)
    sched = Scheduler(topo)
    job = make_job(job_id=1, workers=16, dp=2, tp=4, pp=2)
    assert sched.place_job(job)
    for unit_start in range(0, 16, 4):
        locs = {(sched.placement.locate((1, unit_start + k)).rack,
                 sched.placement.locate((1, unit_start + k)).host)
                for k in range(4)}
        assert len(locs) == 1


class SetPlacement:
    """Reference model for the lockstep test: the slot bookkeeping
    Placement kept before its bitmasks, one set of taken slots per host
    and a new GpuId per assignment."""

    def __init__(self, topology):
        self.topology = topology
        self.free = [[topology.gpus_per_host] * topology.hosts_per_rack
                     for _ in range(topology.num_racks)]
        self.workers = {}
        self.host_slots = {}
        self.jobs = {}

    def free_slots(self, rack, host):
        return self.free[rack][host]

    def rack_free_units(self, rack, unit):
        return sum(f // unit for f in self.free[rack])

    def assign(self, worker, rack, host):
        if worker in self.workers:
            raise SchedulerError(f"worker {worker} is already placed")
        if self.free[rack][host] < 1:
            raise SchedulerError(f"host ({rack},{host}) has no free slot")
        taken = self.host_slots.setdefault((rack, host), set())
        slot = next(s for s in range(self.topology.gpus_per_host)
                    if s not in taken)
        taken.add(slot)
        self.free[rack][host] -= 1
        gpu = GpuId(rack, host, slot)
        self.workers[worker] = gpu
        return gpu

    def unassign(self, worker):
        gpu = self.workers.pop(worker)
        self.host_slots[(gpu.rack, gpu.host)].discard(gpu.slot)
        self.free[gpu.rack][gpu.host] += 1

    def add_job(self, job, racks_per_unit):
        unit = job.tp_degree
        next_worker = 0
        for rack in racks_per_unit:
            fits = [(f, h) for h, f in enumerate(self.free[rack])
                    if f >= unit]
            host = min(fits)[1]
            for _ in range(unit):
                self.assign((job.job_id, next_worker), rack, host)
                next_worker += 1
        self.jobs[job.job_id] = job

    def remove_job(self, job_id):
        job = self.jobs.pop(job_id)
        for i in range(job.num_workers):
            self.unassign((job_id, i))


def assert_lockstep(placement, model):
    topo = placement.topology
    for rack in range(topo.num_racks):
        for host in range(topo.hosts_per_rack):
            assert placement.free_slots(rack, host) \
                == model.free_slots(rack, host)
        for unit in range(1, topo.gpus_per_host + 1):
            assert placement.rack_free_units(rack, unit) \
                == model.rack_free_units(rack, unit)
    assert {(job_id, index)
            for job_id, gpus in placement._workers.items()
            for index, gpu in enumerate(gpus) if gpu is not None} \
        == model.workers.keys()
    for worker, gpu in model.workers.items():
        located = placement.locate(worker)
        assert located == gpu
        assert located is topo.gpu(located.rack, located.host, located.slot)
    assert placement.jobs.keys() == model.jobs.keys()
    assert placement._kept_stages.keys() <= placement.jobs.keys()
    placement.check_slots()


def model_stage_rows(model):
    """(key, units, unit size, ring weight, row) per stage of each job,
    walked from the set model's workers."""
    out = []
    for job_id in sorted(model.jobs):
        job = model.jobs[job_id]
        for stage in range(job.pp_degree):
            row = [0] * model.topology.num_racks
            for dp in range(job.dp_degree):
                gpu = model.workers[(job_id, job.worker_index(stage, dp, 0))]
                row[gpu.rack] += 1
            out.append(((job_id, stage), job.dp_degree, job.tp_degree,
                        job.tp_degree, tuple(row)))
    return out


def stage_view(stages):
    return [(job.key, job.units, job.unit_size, job.ring_weight, row)
            for job, row in zip(stages.jobs, stages.rows, strict=True)]


def model_ring_loads(model, expected):
    """Each rack's ring load over the model's stage rows: the ring
    weight of every stage spanning two or more racks, on each of them."""
    loads = [0] * model.topology.num_racks
    for _, _, _, weight, row in expected:
        racks = [t for t, v in enumerate(row) if v]
        if len(racks) >= 2:
            for t in racks:
                loads[t] += weight
    return loads


def assert_stage_rows(placement, model):
    """The placement's stage rows, kept or walked, and their ring loads
    match the model's, and changing a returned StageRows leaves the next
    read as it was."""
    expected = model_stage_rows(model)
    loads = model_ring_loads(model, expected)
    stages = stage_rows(placement)
    assert stage_view(stages) == expected
    assert stages.loads == loads
    assert all(type(row) is tuple for row in stages.rows)
    stages.jobs.reverse()
    stages.rows.clear()
    stages.loads[:] = [load + 1 for load in stages.loads]
    again = stage_rows(placement)
    assert stage_view(again) == expected
    assert again.loads == loads


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_placement_lockstep_with_set_model(data):
    """Slot bitmasks, interned ids and stage rows against the set-based
    model, over random add_job / remove_job / assign / unassign / move
    sequences, with stage rows read after every operation."""
    gph = data.draw(st.sampled_from((1, 2, 4, 8)), label="gpus_per_host")
    topo = ClusterTopology(data.draw(st.integers(1, 3), label="racks"),
                           data.draw(st.integers(1, 3), label="hosts"),
                           gph, 2, 400e9, 400e9)
    placement, model = Placement(topo), SetPlacement(topo)
    loose = []  # workers assigned one by one, outside any job
    next_id = next_loose = 0
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(st.sampled_from(
            ("add_job", "remove_job", "assign", "unassign", "move",
             "reassign")))
        if op == "add_job":
            tp = data.draw(st.sampled_from([t for t in (1, 2, 4, 8)
                                            if t <= gph]))
            units = data.draw(st.integers(1, 4))
            pp = data.draw(st.integers(1, 2))
            job = make_job(job_id=next_id, workers=units * tp * pp,
                           dp=units, tp=tp, pp=pp)
            racks = plan_racks(placement, job)
            assert racks == plan_racks(model, job)
            if racks is None:
                continue
            next_id += 1
            placement.add_job(job, racks)
            model.add_job(job, racks)
        elif op == "remove_job":
            if not model.jobs:
                continue
            job_id = data.draw(st.sampled_from(sorted(model.jobs)))
            placement.remove_job(job_id)
            model.remove_job(job_id)
        elif op == "assign":
            rack = data.draw(st.integers(0, topo.num_racks - 1))
            host = data.draw(st.integers(0, topo.hosts_per_rack - 1))
            worker = (-1, next_loose)
            next_loose += 1
            if model.free_slots(rack, host) < 1:
                with pytest.raises(SchedulerError):
                    placement.assign(worker, rack, host)
                continue
            gpu = placement.assign(worker, rack, host)
            assert gpu == model.assign(worker, rack, host)
            assert gpu is topo.gpu(rack, host, gpu.slot)
            loose.append(worker)
        elif op == "unassign":
            if not loose:
                continue
            worker = loose.pop(data.draw(st.integers(0, len(loose) - 1)))
            placement.unassign(worker)
            model.unassign(worker)
        elif op == "move":
            # a job's worker to another host; its stages are read between
            # the unassign and the assign, and each drops the kept entry
            if not model.jobs:
                continue
            job_id = data.draw(st.sampled_from(sorted(model.jobs)))
            job = model.jobs[job_id]
            worker = (job_id, data.draw(st.integers(0, job.num_workers - 1)))
            rack = data.draw(st.integers(0, topo.num_racks - 1))
            host = data.draw(st.integers(0, topo.hosts_per_rack - 1))
            if model.free_slots(rack, host) < 1:
                continue
            placement.unassign(worker)
            model.unassign(worker)
            assert job_id not in placement._kept_stages
            if worker[1] % job.tp_degree == 0:
                # a stage row locates its units by TP rank 0
                with pytest.raises(KeyError):
                    stage_rows(placement)
            else:
                assert stage_view(stage_rows(placement)) \
                    == model_stage_rows(model)
            gpu = placement.assign(worker, rack, host)
            assert gpu == model.assign(worker, rack, host)
            assert job_id not in placement._kept_stages
        else:
            # assigning a placed worker again is refused by both
            if not model.workers:
                continue
            worker = data.draw(st.sampled_from(sorted(model.workers)))
            rack = data.draw(st.integers(0, topo.num_racks - 1))
            host = data.draw(st.integers(0, topo.hosts_per_rack - 1))
            for side in (placement, model):
                with pytest.raises(SchedulerError, match="already placed"):
                    side.assign(worker, rack, host)
        assert_lockstep(placement, model)
        assert_stage_rows(placement, model)


def test_assign_of_a_placed_worker_raises():
    """A second assign of a placed worker takes no slot and leaves its
    record; after the unassign its host is whole again."""
    topo = ClusterTopology(2, 2, 4, 2, 400e9, 400e9)
    placement = Placement(topo)
    gpu = placement.assign((7, 0), 0, 0)
    with pytest.raises(SchedulerError, match="already placed"):
        placement.assign((7, 0), 1, 1)
    assert placement.locate((7, 0)) is gpu
    assert placement.free_slots(1, 1) == 4
    placement.unassign((7, 0))
    assert placement.free_slots(0, 0) == 4
    placement.check_slots()


@pytest.mark.parametrize("worker", [(8, 0), (7, 2), (7, 0), (7, -1)],
                         ids=["never placed", "past the list",
                              "already unassigned", "negative index"])
def test_locate_and_unassign_of_an_unplaced_worker_raise_keyerror(worker):
    placement = Placement(TOPO)
    placement.assign((7, 0), 0, 0)
    placement.assign((7, 1), 0, 1)
    placement.unassign((7, 0))
    with pytest.raises(KeyError):
        placement.locate(worker)
    with pytest.raises(KeyError):
        placement.unassign(worker)
    assert placement.locate((7, 1)) == GpuId(0, 1, 0)
    placement.check_slots()
