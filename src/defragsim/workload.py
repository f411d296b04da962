"""Job templates, per-iteration traffic volumes, and Poisson arrival traces.

A job is parameterized by its parallelism degrees. Tensor-parallel (TP)
shards stay inside one host and never touch the network; each (pipeline
stage, TP rank) pair forms an independent data-parallel ring whose
all-reduce dominates network traffic. Pipeline-parallel (PP) activations
are small point-to-point transfers between stage boundaries. This module
gives the volumes (``dp_collective_bytes``, ``pp_bytes`` and
``ring_bytes_per_link``); ``jobmodel.plan_iteration_flows`` lays them out
on a placement as flows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .topology import ClusterTopology


@dataclass(frozen=True)
class ModelTemplate:
    name: str
    parameter_bytes: float
    allow_dp: bool = True
    allow_fsdp: bool = False
    allow_tp: bool = False
    allow_pp: bool = False
    compute_seconds: float = 2.0  # per-iteration compute
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
    def compute_time(self) -> float:
        return self.template.compute_seconds

    def worker_index(self, pp: int, dp: int, tp: int) -> int:
        return (pp * self.dp_degree + dp) * self.tp_degree + tp


# A worker is identified by (job_id, worker_index).
WorkerId = tuple[int, int]


def ring_bytes_per_link(group_bytes: float, ring_size: int) -> float:
    """Per-link volume of a bandwidth-optimal ring all-reduce."""
    if ring_size < 2:
        return 0.0
    return 2.0 * group_bytes * (ring_size - 1) / ring_size


def default_dp_collective_bytes(template: ModelTemplate, tp_degree: int,
                                pp_degree: int) -> float:
    """Gradient bytes synchronized per replica group: the model shard
    owned by one (stage, TP rank) pair."""
    return template.parameter_bytes / (tp_degree * pp_degree)


def ideal_iteration_seconds(job: JobSpec, topology: ClusterTopology) -> float:
    """Iteration time of the job running alone, best-packed, with every
    flow at line rate. Used for load calibration and as the slowdown
    denominator."""
    return _ideal_iteration_seconds(
        topology, job.compute_time, job.num_workers, job.dp_degree,
        job.tp_degree, job.pp_degree, job.dp_collective_bytes, job.pp_bytes)


def _ideal_iteration_seconds(topology: ClusterTopology, compute_time: float,
                             num_workers: int, dp_degree: int,
                             tp_degree: int, pp_degree: int,
                             dp_collective_bytes: float,
                             pp_bytes: float) -> float:
    """``ideal_iteration_seconds`` from a job's fields."""
    hosts_needed = math.ceil(num_workers / topology.gpus_per_host)
    if hosts_needed <= 1:
        return compute_time
    racks_needed = math.ceil(hosts_needed / topology.hosts_per_rack)
    if racks_needed <= 1:
        rate = topology.nic_bandwidth
    else:
        rate = min(topology.nic_bandwidth, topology.uplink_bandwidth)
    dp_time = 0.0
    if dp_degree >= 2:
        # Best packing keeps each ring on the fewest hosts; a ring whose
        # members all share one host sends nothing over the network.
        workers_per_stage = dp_degree * tp_degree
        if workers_per_stage > topology.gpus_per_host:
            per_link = ring_bytes_per_link(dp_collective_bytes, dp_degree)
            dp_time = per_link * 8.0 / rate
    pp_time = 0.0
    if pp_degree >= 2:
        pp_time = pp_bytes * 8.0 / rate
    return compute_time + max(dp_time, pp_time)


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
    max_workers: int = 256
    pp_choices: Sequence[int] = (1, 2, 4)
    iterations_min: int = 20
    iterations_max: int = 60
    # the worker counts a job may draw, those above max_workers or the
    # topology's GPU count left out
    size_choices: Sequence[int] = (8, 16, 32, 64, 128, 256)


@dataclass
class Trace:
    jobs: list[JobSpec]
    target_load: float
    seed: int

    def __post_init__(self):
        times = [j.arrival_time for j in self.jobs]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")


def _sizes(cfg: TraceConfig, topology: ClusterTopology) -> list[int]:
    """The worker counts a job may draw."""
    max_w = min(cfg.max_workers, topology.total_gpus)
    return [s for s in cfg.size_choices if s <= max_w]


def _tp_options(template: ModelTemplate,
                topology: ClusterTopology) -> list[int]:
    if template.allow_tp and topology.gpus_per_host > 1:
        return [1, topology.gpus_per_host]
    return [1]


def _pp_options(template: ModelTemplate, cfg: TraceConfig, workers: int,
                tp: int) -> list[int]:
    """The PP degrees that split ``workers`` at TP degree ``tp`` into a
    DP degree of at least 2."""
    return [p for p in (cfg.pp_choices if template.allow_pp else [1])
            if workers % (tp * p) == 0 and workers // (tp * p) >= 2]


def check_menu(cfg: TraceConfig, topology: ClusterTopology) -> None:
    """Raise ValueError unless every template of the menu can produce a
    job on the topology. Draws no random numbers."""
    if not cfg.templates:
        raise ValueError("the trace menu lists no model templates")
    if any(p < 1 for p in cfg.pp_choices):
        raise ValueError(f"pp_choices must be positive: {cfg.pp_choices}")
    if cfg.iterations_min < 1:
        raise ValueError("iterations_min must be at least 1")
    if cfg.iterations_min > cfg.iterations_max:
        raise ValueError("iterations_min must not exceed iterations_max")
    sizes = _sizes(cfg, topology)
    if not sizes:
        raise ValueError(
            f"no worker count of the menu fits the "
            f"{topology.total_gpus}-GPU topology and max_workers "
            f"{cfg.max_workers}")
    for template in cfg.templates:
        if not any(_pp_options(template, cfg, workers, tp)
                   for workers in sizes
                   for tp in _tp_options(template, topology)):
            raise ValueError(
                f"model template {template.name} can never produce a job: "
                f"no worker count in {sizes} splits into a DP degree of "
                "at least 2")


def _sample_job(rng: random.Random, cfg: TraceConfig,
                topology: ClusterTopology, job_id: int
                ) -> tuple[dict, float]:
    """A job's ``JobSpec`` fields but its arrival time, and its ideal
    duration. The menu must pass ``check_menu``."""
    template = rng.choice(list(cfg.templates))
    sizes = _sizes(cfg, topology)
    while True:
        workers = rng.choice(sizes)
        tp = rng.choice(_tp_options(template, topology))
        pp_options = _pp_options(template, cfg, workers, tp)
        if pp_options:
            break
    pp = rng.choice(pp_options)
    dp = workers // (tp * pp)
    fsdp = template.allow_fsdp and (not template.allow_dp or rng.random() < 0.5)
    iterations = rng.randint(cfg.iterations_min, cfg.iterations_max)
    dp_bytes = default_dp_collective_bytes(template, tp, pp)
    pp_bytes = template.pp_boundary_bytes if pp >= 2 else 0.0
    fields = dict(job_id=job_id, template=template, num_workers=workers,
                  dp_degree=dp, tp_degree=tp, pp_degree=pp, fsdp=fsdp,
                  iterations=iterations, dp_collective_bytes=dp_bytes,
                  pp_bytes=pp_bytes)
    ideal = iterations * _ideal_iteration_seconds(
        topology, template.compute_seconds, workers, dp, tp, pp, dp_bytes,
        pp_bytes)
    return fields, ideal


def generate_trace(topology: ClusterTopology, load: float, seed: int,
                   num_jobs: int, cfg: TraceConfig | None = None) -> Trace:
    """Generate a Poisson arrival trace targeting a cluster load fraction.

    The arrival rate is calibrated so that, in the long run, expected GPU
    occupancy is load * total_gpus (Little's law): rate = load * total /
    (E[job gpus] * E[ideal duration]), with the expectations taken over
    the generated jobs themselves. A load that is not a positive finite
    number, or a menu that fails ``check_menu``, raises ValueError
    before anything is drawn.
    """
    if not (math.isfinite(load) and load > 0):
        raise ValueError(f"load must be a positive finite number, "
                         f"not {load!r}")
    cfg = cfg or TraceConfig()
    check_menu(cfg, topology)
    rng = random.Random(seed)
    draws = [_sample_job(rng, cfg, topology, job_id=i)
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
