"""Stage rows, per-rack fragmentation degrees, and the constructive
placement bound.

Each pipeline stage of a job is one row: its DP replicas (TP units) per
rack. A stage spanning two or more racks is fragmented, and each of its
DP rings, one per TP rank, then sends exactly one flow out of every rack
the stage spans. A rack's fragmentation degree is therefore its ring
load (``defrag.ring_loads``): the summed ring weight, i.e. TP degree, of
the fragmented stages on it; pipeline stages count as independent jobs.

Counting per stage rather than per DP ring is exact because a TP unit
never splits across hosts: the scheduler places and the controller
moves whole units, so every TP rank's ring of a stage spans the same
racks as the stage's row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .defrag import SolverJob, is_fragmented, ring_loads
from .scheduler import Placement, SchedulerError
from .topology import ClusterTopology
from .workload import JobSpec


@dataclass
class StageRows:
    """Per-stage unit counts per rack, plus the owning solver jobs."""
    jobs: list[SolverJob] = field(default_factory=list)
    rows: list[tuple[int, ...]] = field(default_factory=list)


def stage_rows(placement: Placement) -> StageRows:
    """One solver job and one row per pipeline stage of each placed job,
    in job-id order; a stage's TP units are located by their TP rank 0.

    A job's stages are walked once and kept in ``placement.kept_stages``
    until one of its workers moves, so a read walks only the jobs that
    changed. The lists returned are fresh and the rows are tuples, so a
    caller may change them without touching the kept ones.
    """
    out = StageRows()
    kept = placement.kept_stages
    jobs = placement.jobs
    for job_id in sorted(jobs):
        entry = kept.get(job_id)
        if entry is None:
            job = jobs[job_id]
            units, tp = job.dp_degree, job.tp_degree
            # SolverJob(key, units, unit_size, ring_weight): positional
            # arguments and a list build it measurably faster
            entry = kept[job_id] = (
                tuple([SolverJob((job_id, stage), units, tp, tp)
                       for stage in range(job.pp_degree)]),
                placement.stage_racks(job))
        out.jobs.extend(entry[0])
        out.rows.extend(entry[1])
    return out


@dataclass(frozen=True)
class FragmentationReport:
    per_rack: tuple[int, ...]
    total_fragmented_groups: int

    @property
    def max_degree(self) -> int:
        return max(self.per_rack, default=0)


def fragmentation_degree(placement: Placement,
                         stages: StageRows | None = None
                         ) -> FragmentationReport:
    """Exact per-rack degrees, recomputed from scratch, or from
    ``stages``, the placement's current ``stage_rows``."""
    if stages is None:
        stages = stage_rows(placement)
    per_rack = ring_loads(stages.jobs, stages.rows,
                          [0] * placement.topology.num_racks)
    fragmented = sum(job.ring_weight
                     for job, row in zip(stages.jobs, stages.rows)
                     if is_fragmented(row))
    return FragmentationReport(per_rack=tuple(per_rack),
                               total_fragmented_groups=fragmented)


def sequential_placement(jobs: Iterable[JobSpec],
                         topology: ClusterTopology) -> Placement:
    """Place jobs' workers sequentially across the cluster left to right.

    For pure DP jobs this guarantees a max per-rack fragmentation degree
    of two: each rack sees at most one job spilling in from the left and
    one spilling out to the right. With TP the bound becomes 2 * max TP
    degree, one ring per TP rank.
    """
    placement = Placement(topology)
    rack, host = 0, 0
    for job in jobs:
        unit = job.tp_degree
        units = job.num_workers // unit
        placed = 0
        while placed < units:
            if rack >= topology.num_racks:
                raise SchedulerError("total job size exceeds cluster capacity")
            if placement.free_slots(rack, host) >= unit:
                base = placed * unit
                for k in range(unit):
                    placement.assign((job.job_id, base + k), rack, host)
                placed += 1
            else:
                host += 1
                if host >= topology.hosts_per_rack:
                    host = 0
                    rack += 1
        placement.jobs[job.job_id] = job
    return placement
