"""Locality-aware initial placement, mimicking a Slurm-like scheduler.

The placement rule: if some rack fully fits the job, use the fitting rack
with the fewest free units (tie-break lowest index); otherwise put as much
as possible on the rack with the most free units and recurse on the
remainder. Jobs that do not fit anywhere wait in a FIFO queue with no
backfilling.

Allocation granularity is one TP group: tp_degree consecutive GPU slots
on a single host (a whole host when tp_degree == gpus_per_host), since
tensor parallelism never crosses a server boundary.
"""

from __future__ import annotations

from collections import deque

from .defrag import SolverJob
from .topology import ClusterTopology, GpuId
from .workload import JobSpec, WorkerId


class SchedulerError(ValueError):
    pass


class Placement:
    """Worker-to-GPU-slot assignment plus per-host slot accounting.

    Each job's workers are one list of GPUs, indexed by worker index,
    with None for a worker not placed. Each host keeps an int bitmask of
    its taken slots (bit s set while slot s holds a worker), and its free
    count is the clear bits left; ``assign`` takes the lowest clear bit,
    so workers fill a host's slots from slot 0 up.
    The ``GpuId`` it records and ``locate`` returns is the topology's
    interned one (``ClusterTopology.gpu``), so a placement never builds
    an id of its own.
    """

    def __init__(self, topology: ClusterTopology):
        self.topology = topology
        self._taken = [[0] * topology.hosts_per_rack
                       for _ in range(topology.num_racks)]
        self._workers: dict[int, list[GpuId | None]] = {}
        self._jobs: dict[int, JobSpec] = {}
        self._kept_stages: dict[
            int, tuple[tuple[SolverJob, ...], tuple[tuple[int, ...], ...]]
        ] = {}

    # -- queries ---------------------------------------------------------

    def locate(self, worker: WorkerId) -> GpuId:
        """The worker's GPU; KeyError if the worker is not placed."""
        job_id, index = worker
        gpus = self._workers.get(job_id)
        if gpus is not None and 0 <= index < len(gpus):
            gpu = gpus[index]
            if gpu is not None:
                return gpu
        raise KeyError(worker)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    @property
    def jobs(self) -> dict[int, JobSpec]:
        return self._jobs

    def free_slots(self, rack: int, host: int) -> int:
        taken = self._taken[rack][host]
        return self.topology.gpus_per_host - taken.bit_count()

    def rack_free_units(self, rack: int, unit: int) -> int:
        gpus = self.topology.gpus_per_host
        return sum((gpus - m.bit_count()) // unit for m in self._taken[rack])

    def job_stages(self, job_id: int) -> tuple[
            tuple[SolverJob, ...], tuple[tuple[int, ...], ...]]:
        """The placed job's stages as solver jobs and rack rows, kept
        until ``assign``, ``unassign`` or ``remove_job`` touches the job;
        KeyError as ``_stage_racks`` raises it."""
        entry = self._kept_stages.get(job_id)
        if entry is None:
            job = self._jobs[job_id]
            units, tp = job.dp_degree, job.tp_degree
            # SolverJob(key, units, unit_size, ring_weight): positional
            # arguments and a list build it measurably faster
            entry = self._kept_stages[job_id] = (
                tuple([SolverJob((job_id, stage), units, tp, tp)
                       for stage in range(job.pp_degree)]),
                self._stage_racks(job))
        return entry

    def _stage_racks(self, job: JobSpec) -> tuple[tuple[int, ...], ...]:
        """Each pipeline stage's TP units per rack, a unit located by its
        TP rank 0; KeyError if one of those workers is not placed."""
        gpus = self._workers.get(job.job_id, ())
        if len(gpus) < job.num_workers:
            raise KeyError((job.job_id, len(gpus)))
        num_racks = self.topology.num_racks
        tp, stride = job.tp_degree, job.dp_degree * job.tp_degree
        rows = []
        for first in range(0, job.num_workers, stride):
            row = [0] * num_racks
            # worker_index(stage, dp, 0) for dp in range(dp_degree)
            for gpu in gpus[first:first + stride:tp]:
                if gpu is None:
                    raise KeyError((job.job_id, gpus.index(None)))
                row[gpu.rack] += 1
            rows.append(tuple(row))
        return tuple(rows)

    def check_slots(self) -> None:
        """Audit the slot bookkeeping; raise AssertionError on a fault.

        Every located worker holds a taken bit of its own and no bit is
        taken without one, every placed job has all its workers located,
        and every kept stage row of a placed job matches a fresh walk.
        """
        topo = self.topology
        held = [[0] * topo.hosts_per_rack for _ in range(topo.num_racks)]
        for job_id, gpus in self._workers.items():
            for index, gpu in enumerate(gpus):
                if gpu is None:
                    continue
                bit = 1 << gpu.slot
                if not self._taken[gpu.rack][gpu.host] & bit:
                    raise AssertionError(
                        f"worker {(job_id, index)} on {gpu} holds no taken "
                        f"slot bit")
                if held[gpu.rack][gpu.host] & bit:
                    raise AssertionError(f"two workers share slot {gpu}")
                held[gpu.rack][gpu.host] |= bit
        for rack in range(topo.num_racks):
            for host in range(topo.hosts_per_rack):
                if self._taken[rack][host] != held[rack][host]:
                    raise AssertionError(
                        f"host ({rack},{host}) has taken slots no worker "
                        f"holds")
        for job_id, job in self._jobs.items():
            gpus = self._workers.get(job_id, ())
            missing = [i for i in range(job.num_workers)
                       if i >= len(gpus) or gpus[i] is None]
            if missing:
                raise AssertionError(
                    f"job {job_id} has workers {missing} unplaced")
        for job_id, (_, rows) in self._kept_stages.items():
            if job_id not in self._jobs:
                continue
            walked = self._stage_racks(self._jobs[job_id])
            if rows != walked:
                raise AssertionError(
                    f"job {job_id} has a stale kept stage row: kept {rows}, "
                    f"walked {walked}")

    # -- mutation --------------------------------------------------------

    def assign(self, worker: WorkerId, rack: int, host: int) -> GpuId:
        """Place an unplaced worker on the host's lowest free slot;
        SchedulerError if the worker is placed or the host is full."""
        job_id, index = worker
        if index < 0:
            raise SchedulerError(f"worker {worker} has a negative index")
        gpus = self._workers.get(job_id, [])
        if index < len(gpus) and gpus[index] is not None:
            raise SchedulerError(f"worker {worker} is already placed")
        taken = self._taken[rack]
        m = taken[host]
        slot = (~m & (m + 1)).bit_length() - 1  # lowest clear bit
        if slot >= self.topology.gpus_per_host:
            raise SchedulerError(f"host ({rack},{host}) has no free slot")
        taken[host] = m | 1 << slot
        gpu = self.topology.gpu(rack, host, slot)
        if index >= len(gpus):
            gpus.extend([None] * (index + 1 - len(gpus)))
        gpus[index] = gpu
        self._workers[job_id] = gpus
        self._kept_stages.pop(job_id, None)
        return gpu

    def unassign(self, worker: WorkerId) -> None:
        """Free the worker's slot; KeyError if it is not placed."""
        gpu = self.locate(worker)
        job_id, index = worker
        self._workers[job_id][index] = None
        self._taken[gpu.rack][gpu.host] &= ~(1 << gpu.slot)
        self._kept_stages.pop(job_id, None)

    def add_job(self, job: JobSpec, racks_per_unit: list[int]) -> None:
        """Materialize a job given the target rack of each TP unit."""
        unit = job.tp_degree
        next_worker = 0
        for rack in racks_per_unit:
            host = self._pick_host(rack, unit)
            for _ in range(unit):
                self.assign((job.job_id, next_worker), rack, host)
                next_worker += 1
        assert next_worker == job.num_workers
        self._jobs[job.job_id] = job

    def _pick_host(self, rack: int, unit: int) -> int:
        # Pack onto the fewest hosts: prefer the already-started host with
        # the least remaining room that still fits the unit, the lowest
        # index on a tie.
        most = self.topology.gpus_per_host - unit  # taken, still fitting
        best, best_taken = None, -1
        for h, m in enumerate(self._taken[rack]):
            taken = m.bit_count()
            if best_taken < taken <= most:
                best, best_taken = h, taken
        if best is None:
            raise SchedulerError(f"rack {rack} cannot fit a unit of {unit}")
        return best

    def remove_job(self, job_id: int) -> None:
        if job_id not in self._jobs:
            raise SchedulerError(f"unknown job id {job_id}")
        job = self._jobs.pop(job_id)
        for i in range(job.num_workers):
            self.unassign((job_id, i))
        # the list goes too, unless a worker placed outside the job's
        # own indices still holds a slot
        if not any(self._workers[job_id]):
            del self._workers[job_id]


def plan_racks(placement: Placement, job: JobSpec) -> list[int] | None:
    """Choose the target rack of each TP unit per the locality rule, or
    None if the job does not fit in the current free capacity."""
    unit = job.tp_degree
    units_needed = job.num_workers // unit
    free = [placement.rack_free_units(r, unit)
            for r in range(placement.topology.num_racks)]
    if sum(free) < units_needed:
        return None
    racks: list[int] = []
    remaining = units_needed
    while remaining > 0:
        fitting = [(free[r], r) for r in range(len(free))
                   if free[r] >= remaining]
        if fitting:
            _, rack = min(fitting)
            racks.extend([rack] * remaining)
            free[rack] -= remaining
            remaining = 0
        else:
            # No rack fits the remainder: take the roomiest rack whole.
            best = max(range(len(free)), key=lambda r: (free[r], -r))
            take = free[best]
            racks.extend([best] * take)
            free[best] = 0
            remaining -= take
    return racks


class Scheduler:
    """Owns the placement and the FIFO wait queue."""

    def __init__(self, topology: ClusterTopology):
        self.placement = Placement(topology)
        self.queue: deque[JobSpec] = deque()

    def place_job(self, job: JobSpec) -> list[JobSpec]:
        """Queue an arriving job behind the waiting ones and admit what
        fits; returns the admitted jobs."""
        if job.job_id in self.placement:
            raise SchedulerError(f"job {job.job_id} already placed")
        self.queue.append(job)
        return self.admit_queued()

    def release_job(self, job_id: int) -> list[JobSpec]:
        """Free a finished job's slots and admit what now fits."""
        self.placement.remove_job(job_id)
        return self.admit_queued()

    def admit_queued(self) -> list[JobSpec]:
        """Place queued jobs in FIFO order, stopping at the first that
        still does not fit; returns the admitted jobs."""
        admitted = []
        while self.queue:
            head = self.queue[0]
            racks = plan_racks(self.placement, head)
            if racks is None:
                break
            self.queue.popleft()
            self.placement.add_job(head, racks)
            admitted.append(head)
        return admitted
