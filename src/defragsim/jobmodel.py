"""Per-job execution model: iteration phases and live migration.

A job alternates between a compute phase (fixed duration) and a
communication phase in which all of its DP ring edges and PP boundary
transfers run concurrently as network flows; the next iteration starts
when every flow of the previous one has drained.
``plan_iteration_flows`` builds those transfers, one ``FlowDemand``
each: the record routing colors and the flow table carries.

Migration happens in batches. The barrier rule: a batch waits until
each job it moves has finished its in-flight iteration, and each such
job pauses there; a job whose in-flight iteration is its last finishes
instead and leaves the batch, its moves dropped. Once every job the
batch still moves has paused, all checkpoint transfers run as mice
flows, then the placement moves commit atomically and the moved jobs
pay a fixed reinitialization delay before resuming. Committing the whole
batch at once sidesteps ordering constraints between moves whose source
and destination slots overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .routing import FlowDemand
from .topology import GpuId
from .workload import JobSpec, WorkerId, ring_bytes_per_link

REINIT_SECONDS = 10.0
# Checkpoint payload per worker relative to its parameter shard: weights
# plus two optimizer moments.
CHECKPOINT_MULTIPLIER = 3.0


def shard_bytes(job: JobSpec) -> float:
    """Checkpoint bytes one worker carries when migrating."""
    shards = job.dp_degree * job.tp_degree * job.pp_degree
    return job.template.parameter_bytes / shards * CHECKPOINT_MULTIPLIER


def plan_iteration_flows(job: JobSpec,
                         locate: Callable[[WorkerId], GpuId]
                         ) -> list[FlowDemand]:
    """All network transfers of one iteration of ``job``.

    Each (pipeline stage, TP rank) pair is one DP ring, ordered by
    (rack, host, slot) so same-rack and same-host members sit together,
    and each hop of it carries ``ring_bytes_per_link`` of the job's DP
    volume. Each boundary between adjacent stages carries one PP transfer
    each way between the stages' (dp 0, tp 0) workers. Same-host hops
    never reach the network and are left out. A ring hop's key is
    ``(job_id, "dp", stage * tp_degree + tp_rank, i)`` with ``i`` its ring
    position, and a PP transfer's is ``(job_id, "pp", i)`` with ``i``
    counting both directions. Keys are stable for a fixed placement, so
    routing colors persist across iterations until the job is migrated.
    """
    job_id, dp, tp = job.job_id, job.dp_degree, job.tp_degree
    per_link = ring_bytes_per_link(job.dp_collective_bytes, dp)
    flows = []
    for stage in range(job.pp_degree):
        for rank in range(tp):
            ring = sorted(
                (locate((job_id, job.worker_index(stage, d, rank)))
                 for d in range(dp)),
                key=lambda g: (g.rack, g.host, g.slot))
            for i in range(dp):
                src, dst = ring[i], ring[(i + 1) % dp]
                if (src.rack, src.host) != (dst.rack, dst.host):
                    flows.append(FlowDemand(
                        (job_id, "dp", stage * tp + rank, i), job_id, src,
                        dst, per_link))
    for stage in range(job.pp_degree - 1):
        a = locate((job_id, job.worker_index(stage, 0, 0)))
        b = locate((job_id, job.worker_index(stage + 1, 0, 0)))
        if (a.rack, a.host) != (b.rack, b.host):
            flows.append(FlowDemand((job_id, "pp", 2 * stage), job_id, a, b,
                                    job.pp_bytes, "pp"))
            flows.append(FlowDemand((job_id, "pp", 2 * stage + 1), job_id,
                                    b, a, job.pp_bytes, "pp"))
    return flows


class IterationPlan(NamedTuple):
    """A job's iteration flows under its current placement, with what
    launching them needs: built once per placement."""
    flows: list[FlowDemand]
    cross: list[bool]  # per flow: whether it crosses racks
    demands: list[FlowDemand]  # the cross-rack flows, which take a colour
    labels: dict[tuple, str]  # flow key -> its repr, for the log
    # per flow: colour (None for intra-rack) -> path, filled on launch
    paths: list[dict]


class JobPhase(enum.Enum):
    COMPUTE = "compute"
    COMM = "comm"
    BARRIERED = "barriered"  # paused at an iteration boundary
    DONE = "done"


@dataclass
class JobRun:
    """Mutable execution state of one placed job, with its iteration
    plan under the current placement once built."""

    job: JobSpec
    start_time: float
    iteration: int = 0  # completed iterations
    phase: JobPhase = JobPhase.COMPUTE
    pending_flows: int = 0  # flows of the in-flight iteration not done
    paused_at: float | None = None
    downtime: float = 0.0
    migrations: int = 0  # workers of this job moved by committed batches
    plan: IterationPlan | None = None

    def finish_iteration(self, now: float, pause: bool = False) -> None:
        """Close out the comm phase: the job is done after its last
        iteration, else it pauses at the barrier if ``pause`` is set, else
        it computes again; the caller decides what runs next."""
        assert self.phase is JobPhase.COMM and not self.pending_flows
        self.iteration += 1
        if self.iteration >= self.job.iterations:
            self.phase = JobPhase.DONE
        elif pause:
            self.phase = JobPhase.BARRIERED
            self.paused_at = now
        else:
            self.phase = JobPhase.COMPUTE

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


@dataclass
class MigrationBatch:
    """One defragmentation event: a set of worker moves applied together.

    ``moves`` loses the moves of a job that finishes before the commit.
    ``transfers`` is None while the batch is at its barrier; from then to
    the commit it holds the checkpoint transfers, and after it is empty."""

    batch_id: int
    moves: list[WorkerMove]
    transfers: list[FlowDemand] | None = None
    pending_transfers: int = 0  # transfers not yet done

    @property
    def affected_jobs(self) -> set:
        return {mv.worker[0] for mv in self.moves}
