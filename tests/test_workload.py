import dataclasses
import hashlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defragsim.config import load_config
from defragsim.jobmodel import plan_iteration_flows
from defragsim.scheduler import Placement
from defragsim.topology import ClusterTopology
from defragsim.workload import (
    DEFAULT_TEMPLATES, JobSpec, ModelTemplate, Trace, TraceConfig,
    _ideal_iteration_seconds, check_menu, default_dp_collective_bytes,
    generate_trace, ideal_duration,
)

TOPO = ClusterTopology(4, 4, 8, 4, 400e9, 400e9)
FIGURE_CONFIG = (Path(__file__).resolve().parents[1] / "configs"
                 / "figure.yaml")
# sha256 of every field of every job of the figure trace, one line per
# job, the template by name and every other field by repr
FIGURE_TRACE_SHA256 = ("ac58fad69957b0ecfcff9eb4ad32d42e"
                       "c816e8a2e5c1e67e5e4ea0f265e5a6c6")


def make_job(job_id=0, workers=8, dp=8, tp=1, pp=1, dp_bytes=1e9,
             pp_bytes=0.0, iterations=10, arrival=0.0):
    tmpl = ModelTemplate("toy", parameter_bytes=1e9, allow_dp=True,
                         allow_tp=True, allow_pp=True,
                         compute_seconds=1.0)
    return JobSpec(job_id=job_id, template=tmpl, num_workers=workers,
                   dp_degree=dp, tp_degree=tp, pp_degree=pp,
                   iterations=iterations, dp_collective_bytes=dp_bytes,
                   pp_bytes=pp_bytes, arrival_time=arrival)


def place_on_racks(job, rack_of_worker):
    """Place the job alone with ``add_job``, each TP unit on the rack of
    its workers."""
    placement = Placement(TOPO)
    placement.add_job(job, rack_of_worker[::job.tp_degree])
    return placement


def place_on_hosts(placement, job, hosts):
    """Place the job with ``add_job`` on its units' racks, then move
    worker i to the (rack, host) ``hosts[i]``, in worker order. The job's
    own slots are released first, as a committed migration batch does, so
    each worker takes the slot a direct assignment would give it."""
    placement.add_job(job, [rack for rack, _ in hosts[::job.tp_degree]])
    workers = [(job.job_id, i) for i in range(job.num_workers)]
    for worker in workers:
        placement.unassign(worker)
    for worker, (rack, host) in zip(workers, hosts, strict=True):
        placement.assign(worker, rack, host)


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


def _ref_sizes(cfg, topology):
    max_w = min(cfg.max_workers, topology.total_gpus)
    return [s for s in cfg.size_choices if s <= max_w]


def _ref_tp_options(template, topology):
    if template.allow_tp and topology.gpus_per_host > 1:
        return [1, topology.gpus_per_host]
    return [1]


def _ref_pp_options(template, cfg, workers, tp):
    return [p for p in (cfg.pp_choices if template.allow_pp else [1])
            if workers % (tp * p) == 0 and workers // (tp * p) >= 2]


def _ref_check_menu(cfg, topology):
    """Reference for the trace oracle: the menu checks as made before the
    menu was built once per trace, plus the non-positive size check."""
    if not cfg.templates:
        raise ValueError("the trace menu lists no model templates")
    if any(p < 1 for p in cfg.pp_choices):
        raise ValueError(f"pp_choices must be positive: {cfg.pp_choices}")
    if any(s < 1 for s in cfg.size_choices):
        raise ValueError(
            f"size_choices must be positive: {cfg.size_choices}")
    if cfg.iterations_min < 1:
        raise ValueError("iterations_min must be at least 1")
    if cfg.iterations_min > cfg.iterations_max:
        raise ValueError("iterations_min must not exceed iterations_max")
    sizes = _ref_sizes(cfg, topology)
    if not sizes:
        raise ValueError(
            f"no worker count of the menu fits the "
            f"{topology.total_gpus}-GPU topology and max_workers "
            f"{cfg.max_workers}")
    for template in cfg.templates:
        if not any(_ref_pp_options(template, cfg, workers, tp)
                   for workers in sizes
                   for tp in _ref_tp_options(template, topology)):
            raise ValueError(
                f"model template {template.name} can never produce a job: "
                f"no worker count in {sizes} splits into a DP degree of "
                "at least 2")


def _ref_sample_job(rng, cfg, topology, job_id):
    """Reference for the trace oracle: one job drawn as the generator
    drew it before its menu was built once per trace, working out the
    worker counts, TP options and PP options again for every draw."""
    template = rng.choice(list(cfg.templates))
    sizes = _ref_sizes(cfg, topology)
    while True:
        workers = rng.choice(sizes)
        tp = rng.choice(_ref_tp_options(template, topology))
        pp_options = _ref_pp_options(template, cfg, workers, tp)
        if pp_options:
            break
    pp = rng.choice(pp_options)
    dp = workers // (tp * pp)
    # the DP-or-FSDP coin, drawn as the generator drew it when a job
    # field kept it
    template.allow_fsdp and (not template.allow_dp or rng.random() < 0.5)
    iterations = rng.randint(cfg.iterations_min, cfg.iterations_max)
    dp_bytes = default_dp_collective_bytes(template, tp, pp)
    pp_bytes = template.pp_boundary_bytes if pp >= 2 else 0.0
    fields = dict(job_id=job_id, template=template, num_workers=workers,
                  dp_degree=dp, tp_degree=tp, pp_degree=pp,
                  iterations=iterations, dp_collective_bytes=dp_bytes,
                  pp_bytes=pp_bytes)
    ideal = iterations * _ideal_iteration_seconds(
        topology, template.compute_seconds, workers, dp, tp, pp, dp_bytes,
        pp_bytes)
    return fields, ideal


def _ref_generate_trace(topology, load, seed, num_jobs, cfg):
    _ref_check_menu(cfg, topology)
    rng = random.Random(seed)
    draws = [_ref_sample_job(rng, cfg, topology, job_id=i)
             for i in range(num_jobs)]
    if not draws:
        return Trace(jobs=[], target_load=load, seed=seed)
    mean_gpus = sum(fields["num_workers"] for fields, _ in draws) / len(draws)
    mean_ideal = sum(ideal for _, ideal in draws) / len(draws)
    rate = load * topology.total_gpus / (mean_gpus * mean_ideal)
    t = 0.0
    jobs = []
    for fields, _ in draws:
        t += rng.expovariate(rate)
        jobs.append(JobSpec(**fields, arrival_time=t))
    return Trace(jobs=jobs, target_load=load, seed=seed)


@st.composite
def _drawn_template(draw):
    allow_dp, allow_fsdp = draw(st.sampled_from(
        ((True, False), (False, True), (True, True))))
    return ModelTemplate(
        "drawn", parameter_bytes=draw(st.floats(1e6, 1e12)),
        allow_dp=allow_dp, allow_fsdp=allow_fsdp,
        allow_tp=draw(st.booleans()), allow_pp=draw(st.booleans()),
        compute_seconds=draw(st.floats(0.1, 10.0)),
        pp_boundary_bytes=draw(st.floats(0.0, 1e10)))


_templates = st.one_of(st.sampled_from(DEFAULT_TEMPLATES), _drawn_template())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trace_matches_the_per_draw_reference(data):
    """The trace drawn from the menu built once per call equals, job
    field by job field and arrival by arrival, the one drawn by the
    per-draw reference, over random topologies and menus; a menu the
    reference refuses is refused too."""
    topo = ClusterTopology(data.draw(st.integers(1, 4), label="racks"),
                           data.draw(st.integers(1, 4), label="hosts"),
                           data.draw(st.sampled_from((1, 2, 4, 8)),
                                     label="gpus_per_host"),
                           2, 400e9, 400e9)
    iterations_min = data.draw(st.integers(1, 60), label="iterations_min")
    cfg = TraceConfig(
        templates=data.draw(st.lists(_templates, min_size=1, max_size=6),
                            label="templates"),
        max_workers=data.draw(st.one_of(st.just(256), st.integers(1, 160)),
                              label="max_workers"),
        pp_choices=data.draw(st.lists(st.integers(1, 4), max_size=3),
                             label="pp_choices"),
        iterations_min=iterations_min,
        iterations_max=iterations_min + data.draw(st.integers(0, 60),
                                                  label="extra iterations"),
        # mostly small counts, so that most menus can produce a job, and
        # about one menu in ten with a count below 1, which is refused
        size_choices=data.draw(st.lists(
            st.one_of(st.integers(2, 16), st.integers(1, 200)), min_size=1,
            max_size=7), label="sizes") + data.draw(
                st.integers(0, 9).flatmap(
                    lambda k: st.lists(st.integers(-16, 0), min_size=1,
                                       max_size=2) if k == 0
                    else st.just([])), label="non-positive sizes"))
    load = data.draw(st.floats(0.05, 1.5), label="load")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    num_jobs = data.draw(st.integers(0, 40), label="num_jobs")
    try:
        ref = _ref_generate_trace(topo, load, seed, num_jobs, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            generate_trace(topo, load, seed, num_jobs, cfg)
        assert str(refused.value) == str(exc)
        return
    trace = generate_trace(topo, load, seed, num_jobs, cfg)
    assert (trace.target_load, trace.seed) == (ref.target_load, ref.seed)
    assert len(trace.jobs) == len(ref.jobs)
    for job, ref_job in zip(trace.jobs, ref.jobs):
        for f in dataclasses.fields(JobSpec):
            assert getattr(job, f.name) == getattr(ref_job, f.name), f.name
