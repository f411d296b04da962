"""Per-job execution model: iteration phases and live migration.

A job alternates between a compute phase (fixed duration) and a
communication phase in which all of its DP ring edges and PP boundary
transfers run concurrently as network flows; the next iteration starts
when every flow of the previous one has drained.

Migration happens in batches. Every affected job first completes its
in-flight iteration (barrier), then all checkpoint transfers run as mice
flows, then the placement moves commit atomically and the affected jobs
pay a fixed reinitialization delay before resuming. Committing the whole
batch at once sidesteps ordering constraints between moves whose source
and destination slots overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .routing import FlowDemand
from .topology import GpuId
from .workload import JobSpec, WorkerId, pp_traffic, replica_groups, ring_edges

REINIT_SECONDS = 10.0
# Checkpoint payload per worker relative to its parameter shard: weights
# plus two optimizer moments.
CHECKPOINT_MULTIPLIER = 3.0


def shard_bytes(job: JobSpec) -> float:
    """Checkpoint bytes one worker carries when migrating."""
    shards = job.dp_degree * job.tp_degree * job.pp_degree
    return job.template.parameter_bytes / shards * CHECKPOINT_MULTIPLIER


@dataclass(frozen=True)
class PlannedFlow:
    """One iteration flow before uplink selection.

    ``demand`` is set only for cross-rack flows, which need a color from
    the routing strategy; intra-rack flows have a fixed two-link path and
    same-host transfers never reach the network at all (``src == dst``
    host) but still appear here so the iteration accounting is uniform.
    """
    key: tuple
    src: GpuId
    dst: GpuId
    size_bytes: float
    demand: FlowDemand | None = None


def plan_iteration_flows(job: JobSpec,
                         locate: Callable[[WorkerId], GpuId]
                         ) -> list[PlannedFlow]:
    """All network transfers of one iteration of ``job``.

    Keys are stable for a fixed placement, so routing colors persist
    across iterations until the job is migrated.
    """
    flows: list[PlannedFlow] = []
    for group in replica_groups(job):
        for i, (src, dst, nbytes) in enumerate(ring_edges(group, locate)):
            sg, dg = locate(src), locate(dst)
            if (sg.rack, sg.host) == (dg.rack, dg.host):
                continue  # intra-host hop, out of model
            key = (job.job_id, "dp", group.group_index, i)
            demand = None
            if sg.rack != dg.rack:
                demand = FlowDemand(key=key, job_id=job.job_id,
                                    src_rack=sg.rack, dst_rack=dg.rack,
                                    kind="dp")
            flows.append(PlannedFlow(key, sg, dg, nbytes, demand))
    for i, (src, dst, nbytes) in enumerate(pp_traffic(job)):
        sg, dg = locate(src), locate(dst)
        if (sg.rack, sg.host) == (dg.rack, dg.host):
            continue
        key = (job.job_id, "pp", i)
        demand = None
        if sg.rack != dg.rack:
            demand = FlowDemand(key=key, job_id=job.job_id,
                                src_rack=sg.rack, dst_rack=dg.rack,
                                kind="pp")
        flows.append(PlannedFlow(key, sg, dg, nbytes, demand))
    return flows


class JobPhase(enum.Enum):
    COMPUTE = "compute"
    COMM = "comm"
    BARRIERED = "barriered"  # paused at an iteration boundary
    DONE = "done"


@dataclass
class JobRun:
    """Mutable execution state of one placed job."""

    job: JobSpec
    start_time: float
    iteration: int = 0  # completed iterations
    phase: JobPhase = JobPhase.COMPUTE
    pending_flows: set = field(default_factory=set)
    barrier_requested: bool = False
    paused_at: float | None = None
    downtime: float = 0.0
    migrations: int = 0  # workers of this job moved by committed batches

    def finish_iteration(self, now: float) -> None:
        """Close out the comm phase; the caller decides what runs next."""
        assert self.phase is JobPhase.COMM and not self.pending_flows
        self.iteration += 1
        if self.iteration >= self.job.iterations:
            self.phase = JobPhase.DONE
        elif self.barrier_requested:
            self.phase = JobPhase.BARRIERED
            self.paused_at = now
            self.barrier_requested = False
        else:
            self.phase = JobPhase.COMPUTE

    def pause_if_idle(self) -> bool:
        """Barrier immediately when no iteration is in flight."""
        if self.phase is JobPhase.BARRIERED:
            return True
        self.barrier_requested = True
        return False

    def resume(self, now: float) -> None:
        assert self.phase is JobPhase.BARRIERED
        self.downtime += now - self.paused_at
        self.paused_at = None
        self.phase = JobPhase.COMPUTE


@dataclass(frozen=True)
class WorkerMove:
    worker: WorkerId
    dst_rack: int
    dst_host: int


class BatchPhase(enum.Enum):
    BARRIER = "barrier"
    TRANSFER = "transfer"
    REINIT = "reinit"


@dataclass
class MigrationBatch:
    """One defragmentation event: a set of worker moves applied together."""

    batch_id: int
    moves: list[WorkerMove]
    phase: BatchPhase = BatchPhase.BARRIER
    waiting_jobs: set = field(default_factory=set)
    pending_transfers: set = field(default_factory=set)

    @property
    def affected_jobs(self) -> set:
        return {mv.worker[0] for mv in self.moves}
