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

from dataclasses import dataclass
from typing import Iterable

from .defrag import SolverJob, is_fragmented, ring_loads
from .scheduler import Placement, SchedulerError
from .topology import ClusterTopology
from .workload import JobSpec


@dataclass
class StageRows:
    """Per-stage unit counts per rack, the owning solver jobs, and each
    rack's ring load over them."""
    jobs: list[SolverJob]
    rows: list[tuple[int, ...]]
    loads: list[int]


def stage_rows(placement: Placement) -> StageRows:
    """One solver job and one row per pipeline stage of each placed job,
    in job-id order, as ``Placement.job_stages`` keeps them, and the ring
    loads they put on each rack, summed once here.

    The lists returned are fresh and the rows are tuples, so a caller
    may change them without touching the placement's kept ones.
    """
    jobs, rows = [], []
    for job_id in sorted(placement.jobs):
        solver_jobs, job_rows = placement.job_stages(job_id)
        jobs.extend(solver_jobs)
        rows.extend(job_rows)
    return StageRows(jobs, rows, ring_loads(
        jobs, rows, [0] * placement.topology.num_racks))


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
    """Exact per-rack degrees, the ring loads of ``stages``, the
    placement's current ``stage_rows``, built here if not given."""
    if stages is None:
        stages = stage_rows(placement)
    return FragmentationReport(tuple(stages.loads), sum(
        job.ring_weight for job, row in zip(stages.jobs, stages.rows)
        if is_fragmented(row)))


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
