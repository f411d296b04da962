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
from dataclasses import dataclass

from .topology import ClusterTopology, GpuId
from .workload import JobSpec, WorkerId


class SchedulerError(ValueError):
    pass


class Placement:
    """Worker-to-GPU-slot assignment plus per-host free-slot accounting."""

    def __init__(self, topology: ClusterTopology):
        self.topology = topology
        self._free = [[topology.gpus_per_host
                       for _ in range(topology.hosts_per_rack)]
                      for _ in range(topology.num_racks)]
        self._workers: dict[WorkerId, GpuId] = {}
        self._host_slots: dict[tuple[int, int], set[int]] = {}
        self._jobs: dict[int, JobSpec] = {}

    # -- queries ---------------------------------------------------------

    def locate(self, worker: WorkerId) -> GpuId:
        return self._workers[worker]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    @property
    def jobs(self) -> dict[int, JobSpec]:
        return self._jobs

    def free_slots(self, rack: int, host: int) -> int:
        return self._free[rack][host]

    def rack_free_units(self, rack: int, unit: int) -> int:
        return sum(f // unit for f in self._free[rack])

    # -- mutation --------------------------------------------------------

    def assign(self, worker: WorkerId, rack: int, host: int) -> GpuId:
        if self._free[rack][host] < 1:
            raise SchedulerError(f"host ({rack},{host}) has no free slot")
        taken = self._host_slots.setdefault((rack, host), set())
        slot = next(s for s in range(self.topology.gpus_per_host)
                    if s not in taken)
        taken.add(slot)
        self._free[rack][host] -= 1
        gpu = GpuId(rack, host, slot)
        self._workers[worker] = gpu
        return gpu

    def unassign(self, worker: WorkerId) -> None:
        gpu = self._workers.pop(worker)
        self._host_slots[(gpu.rack, gpu.host)].discard(gpu.slot)
        self._free[gpu.rack][gpu.host] += 1

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
        # the least remaining room that still fits the unit.
        best, best_key = None, None
        for h, f in enumerate(self._free[rack]):
            if f >= unit:
                key = (f, h)
                if best_key is None or key < best_key:
                    best, best_key = h, key
        if best is None:
            raise SchedulerError(f"rack {rack} cannot fit a unit of {unit}")
        return best

    def remove_job(self, job_id: int) -> None:
        if job_id not in self._jobs:
            raise SchedulerError(f"unknown job id {job_id}")
        job = self._jobs.pop(job_id)
        for i in range(job.num_workers):
            self.unassign((job_id, i))


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
            if take == 0:
                return None
            racks.extend([best] * take)
            free[best] = 0
            remaining -= take
    return racks


class Scheduler:
    """Owns the placement and the FIFO wait queue."""

    def __init__(self, topology: ClusterTopology):
        self.placement = Placement(topology)
        self.queue: deque[JobSpec] = deque()

    def place_job(self, job: JobSpec) -> bool:
        """Place an arriving job; returns False if it was queued."""
        if job.job_id in self.placement:
            raise SchedulerError(f"job {job.job_id} already placed")
        if self.queue:
            # Strict FIFO: arrivals never jump ahead of waiting jobs.
            self.queue.append(job)
            return False
        racks = plan_racks(self.placement, job)
        if racks is None:
            self.queue.append(job)
            return False
        self.placement.add_job(job, racks)
        return True

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
