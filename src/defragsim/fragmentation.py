"""Stage rows and per-rack fragmentation degrees.

Each pipeline stage of a job is one row: its DP replicas (TP units) per
rack. A stage spanning two or more racks is fragmented, and each of its
DP rings, one per TP rank, then sends exactly one flow out of every rack
the stage spans. A rack's fragmentation degree is therefore its ring
load: the summed ring weight, i.e. TP degree, of the fragmented stages
on it; pipeline stages count as independent jobs. ``stage_rows`` gets
the loads and each row's fragmented flag from ``defrag.ring_walk``, the
one walk that sums the ring loads, once per placement change.

Counting per stage rather than per DP ring is exact because a TP unit
never splits across hosts: the scheduler places and the controller
moves whole units, so every TP rank's ring of a stage spans the same
racks as the stage's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .defrag import SolverJob, ring_walk
from .scheduler import Placement


@dataclass
class StageRows:
    """Per-stage unit counts per rack, the owning solver jobs, whether
    each row is fragmented, and each rack's ring load over them."""
    jobs: list[SolverJob]
    rows: list[tuple[int, ...]]
    fragmented: list[bool]
    loads: list[int]


def stage_rows(placement: Placement) -> StageRows:
    """One solver job and one row per pipeline stage of each placed job,
    in job-id order, as ``Placement.job_stages`` keeps them, with the
    rows' ``ring_walk``: whether each row is fragmented and the ring
    loads the fragmented rows put on each rack.

    The lists returned are fresh and the rows are tuples, so a caller
    may change them without touching the placement's kept ones.
    """
    jobs, rows = [], []
    for job_id in sorted(placement.jobs):
        solver_jobs, job_rows = placement.job_stages(job_id)
        jobs.extend(solver_jobs)
        rows.extend(job_rows)
    fragmented, loads = ring_walk(jobs, rows,
                                  [0] * placement.topology.num_racks)
    return StageRows(jobs, rows, fragmented, loads)


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
        job.ring_weight for job in compress(stages.jobs, stages.fragmented)))

