import dataclasses
import hashlib
import math
import random
from pathlib import Path

import pytest

from defragsim.config import load_config
from defragsim.jobmodel import plan_iteration_flows
from defragsim.scheduler import Placement
from defragsim.topology import ClusterTopology
from defragsim.workload import (
    JobSpec, ModelTemplate, TraceConfig, check_menu, generate_trace,
    ideal_duration,
)

TOPO = ClusterTopology(4, 4, 8, 4, 400e9, 400e9)
FIGURE_CONFIG = (Path(__file__).resolve().parents[1] / "configs"
                 / "figure.yaml")
# sha256 of every field of every job of the figure trace, one line per
# job, the template by name and every other field by repr
FIGURE_TRACE_SHA256 = ("49afb5e1d521651d46dd065972888d98"
                       "03d75382274e594e1ff280f31356b36e")


def make_job(job_id=0, workers=8, dp=8, tp=1, pp=1, dp_bytes=1e9,
             pp_bytes=0.0, iterations=10, arrival=0.0):
    tmpl = ModelTemplate("toy", parameter_bytes=1e9, allow_dp=True,
                         allow_tp=True, allow_pp=True,
                         compute_seconds=1.0)
    return JobSpec(job_id=job_id, template=tmpl, num_workers=workers,
                   dp_degree=dp, tp_degree=tp, pp_degree=pp, fsdp=False,
                   iterations=iterations, dp_collective_bytes=dp_bytes,
                   pp_bytes=pp_bytes, arrival_time=arrival)


def place_on_racks(job, rack_of_worker):
    """Build a placement mapping each worker to a host on the given rack."""
    placement = Placement(TOPO)
    next_host = {}
    for i, rack in enumerate(rack_of_worker):
        host = next_host.get(rack, 0)
        while placement.free_slots(rack, host) == 0:
            host += 1
        next_host[rack] = host
        placement.assign((job.job_id, i), rack, host)
    return placement


def flows_of(job, placement, kind):
    return [f for f in plan_iteration_flows(job, placement.locate)
            if f.kind == kind]


def test_replica_group_count():
    """One DP ring per (stage, TP rank), holding every worker of the pair:
    with each ring's two members on racks 0 and 1, every ring has two
    cross-rack hops and every worker sends one."""
    job = make_job(workers=32, dp=2, tp=8, pp=2)
    placement = place_on_racks(job, [(w // 8) % 2 for w in range(32)])
    hops = flows_of(job, placement, "dp")
    assert sorted(f.key for f in hops) == [
        (0, "dp", group, i) for group in range(16) for i in range(2)]
    for f in hops:
        stage, rank = divmod(f.key[2], job.tp_degree)
        assert {f.src, f.dst} == {
            placement.locate((0, job.worker_index(stage, d, rank)))
            for d in range(2)}
    assert {f.src for f in hops} == {placement.locate((0, w))
                                     for w in range(32)}


def cross_rack_demands(job, placement):
    """(src_rack, dst_rack, bytes) of each cross-rack flow of one
    iteration: the flows that take a routing colour."""
    return [(f.src.rack, f.dst.rack, f.size_bytes)
            for f in plan_iteration_flows(job, placement.locate)
            if f.src.rack != f.dst.rack]


def test_ring_traffic_single_rack():
    job = make_job(workers=4, dp=4)
    placement = place_on_racks(job, [3, 3, 3, 3])
    assert cross_rack_demands(job, placement) == []


def test_ring_traffic_two_racks_cycle():
    job = make_job(workers=4, dp=4)
    placement = place_on_racks(job, [0, 0, 1, 1])
    demands = cross_rack_demands(job, placement)
    assert len(demands) == 2
    assert {(s, d) for s, d, _ in demands} == {(0, 1), (1, 0)}


def test_ring_traffic_volume_llama_scale():
    # 840 GB synchronized by a 4-member group -> 1,260 GB per cross-rack flow
    job = make_job(workers=4, dp=4, dp_bytes=840e9)
    placement = place_on_racks(job, [0, 0, 1, 1])
    demands = cross_rack_demands(job, placement)
    assert len(demands) == 2
    for _, _, volume in demands:
        assert volume == pytest.approx(1260e9)


def test_ring_traffic_flow_count_equals_rack_span():
    rng = random.Random(7)
    job = make_job(workers=8, dp=8)
    for _ in range(200):
        racks = [rng.randrange(TOPO.num_racks) for _ in range(8)]
        placement = place_on_racks(job, racks)
        demands = cross_rack_demands(job, placement)
        k = len(set(racks))
        assert len(demands) == (k if k >= 2 else 0)
        # directed cycle: each spanned rack appears once as src and once
        # as dst, and following the demands from one rack visits all k
        if k >= 2:
            assert {s for s, _, _ in demands} == set(racks)
            assert {d for _, d, _ in demands} == set(racks)
            succ = {s: d for s, d, _ in demands}
            rack, visited = racks[0], set()
            for _ in range(k):
                visited.add(rack)
                rack = succ[rack]
            assert rack == racks[0] and visited == set(racks)


def test_dp_bytes_placement_invariant():
    """Every ring hop carries the same bytes wherever the ring lies."""
    job = make_job(workers=8, dp=8, dp_bytes=5e9)
    sizes = set()
    for racks in ([0] * 4 + [1] * 4, [0, 1] * 4, [0, 1, 2, 3] * 2):
        placement = place_on_racks(job, list(racks))
        sizes.update(f.size_bytes for f in flows_of(job, placement, "dp"))
    assert sizes == {2 * 5e9 * 7 / 8}


def test_pp_traffic_empty_without_pp():
    job = make_job(workers=8, dp=8, pp=1)
    placement = place_on_racks(job, [0, 1] * 4)
    assert flows_of(job, placement, "pp") == []


def test_pp_traffic_two_stage_toy():
    job = make_job(workers=4, dp=2, pp=2, pp_bytes=1e9)
    placement = place_on_racks(job, [0, 0, 1, 1])
    first, second = placement.locate((0, 0)), placement.locate((0, 2))
    # one forward, one backward, between the stages' (dp 0, tp 0) workers
    assert [(f.key, f.src, f.dst, f.size_bytes)
            for f in flows_of(job, placement, "pp")] == [
        ((0, "pp", 0), first, second, 1e9),
        ((0, "pp", 1), second, first, 1e9)]
    # on one host they never reach the network
    assert flows_of(job, place_on_racks(job, [0] * 4), "pp") == []


def test_pp_traffic_llama_total():
    # pp=4 -> 3 boundaries, forward+backward each: 6 * 8 GB = 48 GB
    job = make_job(workers=32, dp=8, pp=4, pp_bytes=8e9)
    placement = place_on_racks(job, [w // 8 for w in range(32)])
    pp = flows_of(job, placement, "pp")
    assert [f.key for f in pp] == [(0, "pp", i) for i in range(6)]
    assert sum(f.size_bytes for f in pp) == pytest.approx(48e9)


def test_generate_trace_rejects_bad_load():
    with pytest.raises(ValueError):
        generate_trace(TOPO, 0.0, seed=1, num_jobs=5)


# a NaN load makes every arrival time NaN, which never comes due
@pytest.mark.parametrize("load", [math.nan, math.inf])
def test_generate_trace_rejects_non_finite_load(load):
    with pytest.raises(ValueError, match="positive finite"):
        generate_trace(TOPO, load, seed=1, num_jobs=5)


# On 64 GPUs: one worker cannot form a DP ring of two, and 128 do not fit.
@pytest.mark.parametrize("sizes, message", [
    ((1,), "can never produce a job"), ((128,), "no worker count")])
def test_generate_trace_rejects_menu_without_jobs(sizes, message):
    topo = ClusterTopology(4, 2, 8, 2, 400e9, 400e9)
    cfg = TraceConfig(size_choices=sizes)
    with pytest.raises(ValueError, match=message):
        check_menu(cfg, topo)
    with pytest.raises(ValueError, match=message):
        generate_trace(topo, 0.9, seed=0, num_jobs=5, cfg=cfg)


def test_generate_trace_rejects_zero_iterations():
    cfg = TraceConfig(iterations_min=0)
    with pytest.raises(ValueError, match="iterations_min must be at least 1"):
        generate_trace(TOPO, 0.9, seed=0, num_jobs=5, cfg=cfg)


def test_generate_trace_deterministic():
    t1 = generate_trace(TOPO, 0.8, seed=42, num_jobs=30)
    t2 = generate_trace(TOPO, 0.8, seed=42, num_jobs=30)
    assert t1.jobs == t2.jobs


def test_generate_trace_fields_valid():
    trace = generate_trace(TOPO, 0.8, seed=3, num_jobs=50)
    assert len(trace.jobs) == 50
    times = [j.arrival_time for j in trace.jobs]
    assert times == sorted(times)
    for job in trace.jobs:
        assert job.num_workers == job.dp_degree * job.tp_degree * job.pp_degree
        assert job.tp_degree <= TOPO.gpus_per_host


def test_generate_trace_occupancy_little_law():
    # Long-run expected GPU occupancy ~= load * total_gpus (+-10%)
    load = 0.9
    trace = generate_trace(TOPO, load, seed=11, num_jobs=4000)
    horizon = trace.jobs[-1].arrival_time
    busy = 0.0
    for job in trace.jobs:
        end = min(job.arrival_time + ideal_duration(job, TOPO), horizon)
        busy += max(0.0, end - job.arrival_time) * job.num_workers
    occupancy = busy / horizon / TOPO.total_gpus
    assert occupancy == pytest.approx(load, rel=0.10)


def test_figure_trace_is_pinned():
    """The figure trace itself, field by field: trace generation is gated
    directly, not only through the simulation hashes."""
    exp = load_config(FIGURE_CONFIG)
    cfg = exp.trace.trace_config()
    trace = generate_trace(exp.topology.build(), exp.trace.loads[0],
                           seed=exp.trace.base_seed,
                           num_jobs=exp.trace.num_jobs, cfg=cfg)
    digest = hashlib.sha256()
    for job in trace.jobs:
        fields = [job.template.name if f.name == "template"
                  else repr(getattr(job, f.name))
                  for f in dataclasses.fields(JobSpec)]
        digest.update(("|".join(fields) + "\n").encode())
        assert any(job.template is t for t in cfg.templates)
    assert len(trace.jobs) == 101
    assert digest.hexdigest() == FIGURE_TRACE_SHA256
