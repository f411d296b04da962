import random

from hypothesis import given, settings, strategies as st

from defragsim.controller import build_instance
from defragsim.fragmentation import fragmentation_degree
from defragsim.scheduler import Placement, Scheduler
from defragsim.topology import ClusterTopology
from tests.test_workload import make_job, place_on_racks

TOPO = ClusterTopology(4, 4, 8, 4, 400e9, 400e9)


def left_to_right(jobs, topology):
    """Place the jobs in order across the cluster, left to right: each
    TP unit goes to the current host if it fits there, else to the next
    host, rack by rack. The layout is built as per-unit rack lists and
    placed with ``add_job``."""
    placement = Placement(topology)
    rack = host = 0
    free = topology.gpus_per_host
    for job in jobs:
        racks = []
        for _ in range(job.num_workers // job.tp_degree):
            if free < job.tp_degree:
                host, free = host + 1, topology.gpus_per_host
                if host == topology.hosts_per_rack:
                    rack, host = rack + 1, 0
            racks.append(rack)
            free -= job.tp_degree
        placement.add_job(job, racks)
    return placement


def test_contained_job_contributes_zero():
    job = make_job(job_id=1, workers=4, dp=4)
    placement = place_on_racks(job, [2, 2, 2, 2])
    report = fragmentation_degree(placement)
    assert report.per_rack == (0, 0, 0, 0)
    assert report.total_fragmented_groups == 0


def test_two_jobs_spanning_same_rack():
    placement = Placement(TOPO)
    for job_id, racks in ((1, [0, 1]), (2, [1, 2])):
        placement.add_job(make_job(job_id=job_id, workers=2, dp=2), racks)
    report = fragmentation_degree(placement)
    assert report.per_rack[1] == 2
    assert report.per_rack[0] == 1 and report.per_rack[2] == 1


def test_tp_job_contributes_tp_degree():
    topo = ClusterTopology(2, 2, 8, 16, 400e9, 400e9)
    placement = Placement(topo)
    # one replica per rack
    placement.add_job(make_job(job_id=1, workers=16, dp=2, tp=8), [0, 1])
    report = fragmentation_degree(placement)
    assert report.per_rack == (8, 8)
    assert report.total_fragmented_groups == 8


def test_pp_stages_counted_independently():
    # 2 stages, each a 2-worker DP ring; stage 0 split across racks,
    # stage 1 contained.
    job = make_job(job_id=1, workers=4, dp=2, pp=2)
    placement = place_on_racks(job, [0, 1, 2, 2])
    report = fragmentation_degree(placement)
    assert report.per_rack == (1, 1, 0, 0)


def test_degree_invariant_under_member_permutation():
    rng = random.Random(3)
    job = make_job(job_id=1, workers=8, dp=8)
    racks = [0, 0, 1, 1, 2, 2, 3, 3]
    base = None
    for _ in range(10):
        rng.shuffle(racks)
        placement = place_on_racks(job, racks)
        report = fragmentation_degree(placement)
        spans = len(set(racks))
        assert report.per_rack == tuple(
            1 if r in set(racks) and spans >= 2 else 0 for r in range(4))


def test_threshold_violated_basic():
    # degree 1 on racks 0 and 1: only a threshold below 1 is violated,
    # and then the split stage is the controller's decision variable
    job = make_job(job_id=1, workers=2, dp=2)
    placement = place_on_racks(job, [0, 1])
    assert fragmentation_degree(placement).per_rack == (1, 1, 0, 0)
    assert build_instance(placement, 2) is None
    assert build_instance(placement, float("inf")) is None
    instance = build_instance(placement, 0)
    assert [j.key for j in instance.jobs] == [(1, 0)]
    assert instance.initial == ((1, 1, 0, 0),)


def ring_span_degrees(placement):
    """The paper's definition, one DP ring at a time: every ring spanning
    two or more racks adds one to each rack it spans."""
    per_rack = [0] * placement.topology.num_racks
    fragmented = 0
    for job in placement.jobs.values():
        for stage in range(job.pp_degree):
            for rank in range(job.tp_degree):
                ring = [(job.job_id, job.worker_index(stage, d, rank))
                        for d in range(job.dp_degree)]
                span = {placement.locate(w).rack for w in ring}
                if len(span) >= 2:
                    fragmented += 1
                    for rack in span:
                        per_rack[rack] += 1
    return tuple(per_rack), fragmented


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stage_degrees_match_per_ring_definition(data):
    racks = data.draw(st.integers(2, 5))
    hosts = data.draw(st.integers(1, 3))
    gpus = data.draw(st.sampled_from([1, 2, 4]))
    topo = ClusterTopology(racks, hosts, gpus, 2, 400e9, 400e9)
    sched = Scheduler(topo)
    placed, job_id = [], 0
    for _ in range(data.draw(st.integers(1, 12))):
        if placed and data.draw(st.booleans()):
            # departures are what fragment later arrivals
            gone = placed.pop(data.draw(st.integers(0, len(placed) - 1)))
            placed += [j.job_id for j in sched.release_job(gone)]
            continue
        tp = data.draw(st.sampled_from([t for t in (1, 2, 4) if t <= gpus]))
        pp = data.draw(st.integers(1, 3))
        dp = data.draw(st.integers(1, 4))
        job = make_job(job_id=job_id, workers=dp * tp * pp, dp=dp, tp=tp,
                       pp=pp)
        job_id += 1
        if job.num_workers <= topo.total_gpus and sched.place_job(job):
            placed.append(job.job_id)
    report = fragmentation_degree(sched.placement)
    per_rack, fragmented = ring_span_degrees(sched.placement)
    assert report.per_rack == per_rack
    assert report.total_fragmented_groups == fragmented


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_theorem_sequential_bound_pure_dp(data):
    racks = data.draw(st.integers(2, 6))
    hosts = data.draw(st.integers(1, 4))
    gpus = data.draw(st.integers(1, 4))
    topo = ClusterTopology(racks, hosts, gpus, 2, 400e9, 400e9)
    capacity = topo.total_gpus
    sizes = []
    remaining = capacity
    while remaining >= 2:
        size = data.draw(st.integers(2, remaining))
        sizes.append(size)
        remaining -= size
    jobs = [make_job(job_id=i, workers=s, dp=s) for i, s in enumerate(sizes)]
    placement = left_to_right(jobs, topo)
    report = fragmentation_degree(placement)
    assert report.max_degree <= 2


def test_theorem_bound_tight_two_oversized_jobs():
    topo = ClusterTopology(3, 4, 1, 2, 400e9, 400e9)
    jobs = [make_job(job_id=0, workers=5, dp=5),
            make_job(job_id=1, workers=5, dp=5)]
    placement = left_to_right(jobs, topo)
    report = fragmentation_degree(placement)
    assert report.max_degree == 2


def test_sequential_small_jobs_low_degrees():
    topo = ClusterTopology(4, 4, 1, 2, 400e9, 400e9)
    jobs = [make_job(job_id=i, workers=3, dp=3) for i in range(5)]
    placement = left_to_right(jobs, topo)
    report = fragmentation_degree(placement)
    assert all(d in (0, 1, 2) for d in report.per_rack)


def test_corollary_bound_with_tp():
    topo = ClusterTopology(4, 2, 8, 16, 400e9, 400e9)
    rng = random.Random(9)
    for _ in range(50):
        sizes = []
        remaining_hosts = topo.num_racks * topo.hosts_per_rack
        while remaining_hosts >= 2:
            units = rng.randint(2, remaining_hosts)
            sizes.append(units)
            remaining_hosts -= units
        jobs = [make_job(job_id=i, workers=u * 8, dp=u, tp=8)
                for i, u in enumerate(sizes)]
        placement = left_to_right(jobs, topo)
        report = fragmentation_degree(placement)
        assert report.max_degree <= 2 * 8

