"""Job templates, per-iteration traffic volumes, and Poisson arrival traces.

A job is parameterized by its parallelism degrees. Tensor-parallel (TP)
shards stay inside one host and never touch the network; each (pipeline
stage, TP rank) pair forms an independent data-parallel ring whose
all-reduce dominates network traffic. Pipeline-parallel (PP) activations
are small point-to-point transfers between stage boundaries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .topology import ClusterTopology, GpuId


@dataclass(frozen=True)
class ModelTemplate:
    name: str
    parameter_bytes: float
    allow_dp: bool = True
    allow_fsdp: bool = False
    allow_tp: bool = False
    allow_pp: bool = False
    compute_seconds: float = 2.0  # per-iteration compute, config override
    pp_boundary_bytes: float = 0.0  # activation bytes per stage boundary

    def __post_init__(self):
        if self.parameter_bytes <= 0:
            raise ValueError("parameter_bytes must be positive")
        if not (self.allow_dp or self.allow_fsdp):
            raise ValueError("template must allow DP or FSDP")


@dataclass(frozen=True)
class JobSpec:
    job_id: int
    template: ModelTemplate
    num_workers: int
    dp_degree: int
    tp_degree: int
    pp_degree: int
    fsdp: bool
    iterations: int
    dp_collective_bytes: float  # per replica group per iteration
    pp_bytes: float  # per stage boundary per iteration
    arrival_time: float

    def __post_init__(self):
        if self.num_workers != self.dp_degree * self.tp_degree * self.pp_degree:
            raise ValueError("num_workers must equal dp * tp * pp")

    @property
    def num_replica_groups(self) -> int:
        return self.tp_degree * self.pp_degree

    @property
    def compute_time(self) -> float:
        return self.template.compute_seconds

    def worker_index(self, pp: int, dp: int, tp: int) -> int:
        return (pp * self.dp_degree + dp) * self.tp_degree + tp


# A worker is identified by (job_id, worker_index).
WorkerId = tuple[int, int]


@dataclass(frozen=True)
class ReplicaGroup:
    job_id: int
    group_index: int  # flattened (pp_stage, tp_rank)
    members: tuple[WorkerId, ...]  # ordered ring
    bytes_per_iteration: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("replica group may not be empty")


def replica_groups(job: JobSpec) -> list[ReplicaGroup]:
    """DP rings of a job: one per (pipeline stage, TP rank)."""
    groups = []
    for pp in range(job.pp_degree):
        for tp in range(job.tp_degree):
            members = tuple(
                (job.job_id, (pp * job.dp_degree + dp) * job.tp_degree + tp)
                for dp in range(job.dp_degree))
            groups.append(ReplicaGroup(
                job_id=job.job_id,
                group_index=pp * job.tp_degree + tp,
                members=members,
                bytes_per_iteration=job.dp_collective_bytes,
            ))
    return groups


def ring_bytes_per_link(group_bytes: float, ring_size: int) -> float:
    """Per-link volume of a bandwidth-optimal ring all-reduce."""
    if ring_size < 2:
        return 0.0
    return 2.0 * group_bytes * (ring_size - 1) / ring_size


def rank_ring(members: Sequence[WorkerId],
              locate: Callable[[WorkerId], GpuId]) -> list[WorkerId]:
    """Re-rank a replica group so same-rack (and same-host) members are
    contiguous. Workers within a group are order-insensitive, so the
    controller is free to pick this ordering."""
    return sorted(members, key=lambda w: (locate(w).rack, locate(w).host,
                                          locate(w).slot, w))


def ring_edges(group: ReplicaGroup,
               locate: Callable[[WorkerId], GpuId]
               ) -> list[tuple[WorkerId, WorkerId, float]]:
    """Concrete directed ring edges after re-ranking, with per-link bytes.

    Edges between workers on the same host carry bytes too, but their
    path is empty (intra-host interconnect is out of model).
    """
    n = len(group.members)
    if n < 2:
        return []
    ordered = rank_ring(group.members, locate)
    per_link = ring_bytes_per_link(group.bytes_per_iteration, n)
    return [(ordered[i], ordered[(i + 1) % n], per_link) for i in range(n)]


def pp_traffic(job: JobSpec) -> list[tuple[WorkerId, WorkerId, float]]:
    """Point-to-point activation demands between adjacent pipeline stages.

    One forward and one backward demand per boundary per iteration,
    between stage representatives (dp_rank 0, tp_rank 0).
    """
    if job.pp_degree < 2:
        return []
    demands = []
    for stage in range(job.pp_degree - 1):
        a = (job.job_id, (stage * job.dp_degree) * job.tp_degree)
        b = (job.job_id, ((stage + 1) * job.dp_degree) * job.tp_degree)
        demands.append((a, b, job.pp_bytes))
        demands.append((b, a, job.pp_bytes))
    return demands


def default_dp_collective_bytes(template: ModelTemplate, tp_degree: int,
                                pp_degree: int) -> float:
    """Gradient bytes synchronized per replica group: the model shard
    owned by one (stage, TP rank) pair."""
    return template.parameter_bytes / (tp_degree * pp_degree)


def ideal_iteration_seconds(job: JobSpec, topology: ClusterTopology) -> float:
    """Iteration time of the job running alone, best-packed, with every
    flow at line rate. Used for load calibration and as the slowdown
    denominator."""
    hosts_needed = math.ceil(job.num_workers / topology.gpus_per_host)
    if hosts_needed <= 1:
        return job.compute_time
    racks_needed = math.ceil(hosts_needed / topology.hosts_per_rack)
    if racks_needed <= 1:
        rate = topology.nic_bandwidth
    else:
        rate = min(topology.nic_bandwidth, topology.uplink_bandwidth)
    dp_time = 0.0
    if job.dp_degree >= 2:
        # Best packing keeps each ring on the fewest hosts; a ring whose
        # members all share one host sends nothing over the network.
        workers_per_stage = job.dp_degree * job.tp_degree
        if workers_per_stage > topology.gpus_per_host:
            per_link = ring_bytes_per_link(job.dp_collective_bytes,
                                           job.dp_degree)
            dp_time = per_link * 8.0 / rate
    pp_time = 0.0
    if job.pp_degree >= 2:
        pp_time = job.pp_bytes * 8.0 / rate
    return job.compute_time + max(dp_time, pp_time)


def ideal_duration(job: JobSpec, topology: ClusterTopology) -> float:
    return job.iterations * ideal_iteration_seconds(job, topology)


DEFAULT_TEMPLATES: tuple[ModelTemplate, ...] = (
    ModelTemplate("gpt3-13b", parameter_bytes=26e9, allow_dp=True,
                  compute_seconds=2.0),
    ModelTemplate("gpt3-7b", parameter_bytes=14e9, allow_dp=True,
                  compute_seconds=1.2),
    ModelTemplate("gpt-oss-120b", parameter_bytes=240e9, allow_dp=False,
                  allow_fsdp=True, compute_seconds=8.0),
    ModelTemplate("gpt-oss-20b", parameter_bytes=40e9, allow_dp=False,
                  allow_fsdp=True, compute_seconds=2.5),
    ModelTemplate("llama2-70b", parameter_bytes=140e9, allow_dp=True,
                  allow_fsdp=True, allow_tp=True, allow_pp=True,
                  compute_seconds=4.0, pp_boundary_bytes=8e9),
    ModelTemplate("llama3-70b", parameter_bytes=140e9, allow_dp=True,
                  allow_fsdp=True, allow_tp=True, allow_pp=True,
                  compute_seconds=4.0, pp_boundary_bytes=8e9),
)


@dataclass
class TraceConfig:
    """Menu the trace generator draws from."""
    templates: Sequence[ModelTemplate] = DEFAULT_TEMPLATES
    min_workers: int = 8
    max_workers: int = 256
    pp_choices: Sequence[int] = (1, 2, 4)
    iterations_min: int = 20
    iterations_max: int = 60
    # Explicit worker-count menu; None means powers of two within
    # [min_workers, max_workers].
    size_choices: Sequence[int] | None = None


@dataclass
class Trace:
    jobs: list[JobSpec]
    target_load: float
    seed: int

    def __post_init__(self):
        times = [j.arrival_time for j in self.jobs]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")


def _sample_job(rng: random.Random, cfg: TraceConfig,
                topology: ClusterTopology, job_id: int,
                arrival_time: float) -> JobSpec:
    template = rng.choice(list(cfg.templates))
    max_w = min(cfg.max_workers, topology.total_gpus)
    if cfg.size_choices is not None:
        sizes = [s for s in cfg.size_choices if s <= max_w]
    else:
        sizes = [2 ** k for k in range(int(math.log2(cfg.min_workers)),
                                       int(math.log2(max_w)) + 1)]
    while True:
        workers = rng.choice(sizes)
        tp_options = [1]
        if template.allow_tp and topology.gpus_per_host > 1:
            tp_options.append(topology.gpus_per_host)
        tp = rng.choice(tp_options)
        pp_options = [p for p in (cfg.pp_choices if template.allow_pp else [1])
                      if workers % (tp * p) == 0 and workers // (tp * p) >= 2]
        if not pp_options:
            continue
        pp = rng.choice(pp_options)
        dp = workers // (tp * pp)
        break
    fsdp = template.allow_fsdp and (not template.allow_dp or rng.random() < 0.5)
    return JobSpec(
        job_id=job_id,
        template=template,
        num_workers=workers,
        dp_degree=dp,
        tp_degree=tp,
        pp_degree=pp,
        fsdp=fsdp,
        iterations=rng.randint(cfg.iterations_min, cfg.iterations_max),
        dp_collective_bytes=default_dp_collective_bytes(template, tp, pp),
        pp_bytes=template.pp_boundary_bytes if pp >= 2 else 0.0,
        arrival_time=arrival_time,
    )


def generate_trace(topology: ClusterTopology, load: float, seed: int,
                   num_jobs: int, cfg: TraceConfig | None = None) -> Trace:
    """Generate a Poisson arrival trace targeting a cluster load fraction.

    The arrival rate is calibrated so that, in the long run, expected GPU
    occupancy is load * total_gpus (Little's law): rate = load * total /
    (E[job gpus] * E[ideal duration]), with the expectations taken over
    the generated jobs themselves.
    """
    if load <= 0:
        raise ValueError("load must be positive")
    cfg = cfg or TraceConfig()
    rng = random.Random(seed)
    jobs = [_sample_job(rng, cfg, topology, job_id=i, arrival_time=0.0)
            for i in range(num_jobs)]
    if not jobs:
        return Trace(jobs=[], target_load=load, seed=seed)
    mean_gpus = sum(j.num_workers for j in jobs) / len(jobs)
    mean_ideal = sum(ideal_duration(j, topology) for j in jobs) / len(jobs)
    rate = load * topology.total_gpus / (mean_gpus * mean_ideal)
    t = 0.0
    timed = []
    for job in jobs:
        t += rng.expovariate(rate)
        timed.append(_with_arrival(job, t))
    return Trace(jobs=timed, target_load=load, seed=seed)


def _with_arrival(job: JobSpec, t: float) -> JobSpec:
    d = asdict(job)
    d["template"] = job.template
    d["arrival_time"] = t
    return JobSpec(**d)


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace as line-delimited JSON, one job per record."""
    with open(path, "w") as f:
        f.write(json.dumps({"target_load": trace.target_load,
                            "seed": trace.seed}) + "\n")
        for job in trace.jobs:
            rec = asdict(job)
            f.write(json.dumps(rec) + "\n")


def load_trace(path: str) -> Trace:
    with open(path) as f:
        header = json.loads(f.readline())
        jobs = []
        for line in f:
            rec = json.loads(line)
            rec["template"] = ModelTemplate(**rec["template"])
            jobs.append(JobSpec(**rec))
    return Trace(jobs=jobs, target_load=header["target_load"],
                 seed=header["seed"])
