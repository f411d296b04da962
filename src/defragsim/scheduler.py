"""Locality-aware initial placement, mimicking a Slurm-like scheduler.

The placement rule: if some rack fully fits the job, use the fitting rack
with the fewest free units (tie-break lowest index); otherwise put as much
as possible on the rack with the most free units and recurse on the
remainder. Jobs that do not fit anywhere wait in a FIFO queue with no
backfilling.

Allocation granularity is one TP group: tp_degree GPU slots on a single
host (a whole host when tp_degree == gpus_per_host), since tensor
parallelism never crosses a server boundary. A job is placed by whole
units: each unit goes to its rack's ``best_fit_host``, and the units
bound for one host take its lowest free slots in one step.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import groupby
from types import MappingProxyType

from .defrag import SolverJob
from .topology import ClusterTopology, GpuId
from .workload import JobSpec, WorkerId


class SchedulerError(ValueError):
    pass


def best_fit_host(free: list[int], unit: int) -> int | None:
    """The host with the fewest free slots, ``free[host]``, that still
    fit a unit of ``unit`` slots, the lowest index on a tie; None if no
    host fits."""
    best, best_free = None, math.inf
    for host, slots in enumerate(free):
        if unit <= slots < best_free:
            best, best_free = host, slots
    return best


class Placement:
    """Worker-to-GPU-slot assignment plus per-host slot accounting.

    ``add_job`` is the only way a job enters, and ``jobs`` is a read-only
    view of the placed jobs. Each placed job's workers are one list of
    GPUs, exactly ``num_workers`` long and indexed by worker index, with
    None for a worker not placed. Each host keeps an int bitmask of
    its taken slots (bit s set while slot s holds a worker), and its free
    count is the clear bits left; ``assign`` and ``add_job`` take the
    lowest clear bits, so workers fill a host's slots from slot 0 up.
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
        self._jobs_view = MappingProxyType(self._jobs)
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

    @property
    def jobs(self) -> MappingProxyType[int, JobSpec]:
        return self._jobs_view

    def free_slots(self, rack: int, host: int) -> int:
        taken = self._taken[rack][host]
        return self.topology.gpus_per_host - taken.bit_count()

    def rack_free_units(self, rack: int, unit: int) -> int:
        gpus = self.topology.gpus_per_host
        return sum((gpus - m.bit_count()) // unit for m in self._taken[rack])

    def job_stages(self, job_id: int) -> tuple[
            tuple[SolverJob, ...], tuple[tuple[int, ...], ...]]:
        """The placed job's stages as solver jobs and rack rows, walked
        on first use and kept until ``assign``, ``unassign`` or
        ``remove_job`` touches the job; KeyError as ``_stage_racks``
        raises it."""
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
        gpus = self._workers[job.job_id]
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
        taken without one, the worker lists are keyed by exactly the
        placed jobs, each ``num_workers`` long with every worker located,
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
        if self._workers.keys() != self._jobs.keys():
            raise AssertionError(
                f"worker lists are kept for jobs {sorted(self._workers)}, "
                f"but jobs {sorted(self._jobs)} are placed")
        for job_id, job in self._jobs.items():
            gpus = self._workers[job_id]
            if len(gpus) != job.num_workers:
                raise AssertionError(
                    f"job {job_id} has {len(gpus)} worker entries for "
                    f"{job.num_workers} workers")
            missing = [i for i, gpu in enumerate(gpus) if gpu is None]
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
        """Place an unplaced worker of a placed job on the host's lowest
        free slot; SchedulerError, with the placement unchanged, if the
        job is not placed, the index is not one of its workers', the
        worker is placed or the host is full."""
        job_id, index = worker
        gpus = self._workers.get(job_id)
        if gpus is None or not 0 <= index < len(gpus):
            raise SchedulerError(
                f"worker {worker} is not a worker of a placed job")
        if gpus[index] is not None:
            raise SchedulerError(f"worker {worker} is already placed")
        [gpu] = self._take(rack, host, 1)
        gpus[index] = gpu
        self._kept_stages.pop(job_id, None)
        return gpu

    def unassign(self, worker: WorkerId) -> None:
        """Free the worker's slot; KeyError if it is not placed."""
        gpu = self.locate(worker)
        job_id, index = worker
        self._workers[job_id][index] = None
        self._taken[gpu.rack][gpu.host] &= ~(1 << gpu.slot)
        self._kept_stages.pop(job_id, None)

    def _take(self, rack: int, host: int, count: int) -> list[GpuId]:
        """Take the host's ``count`` lowest free slots in one mask update;
        their ids in slot order. SchedulerError if fewer are free."""
        taken = self._taken[rack]
        m = taken[host]
        gph = self.topology.gpus_per_host
        if gph - m.bit_count() < count:
            raise SchedulerError(f"host ({rack},{host}) has no free slot")
        ids = self.topology.gpus
        base = (rack * self.topology.hosts_per_rack + host) * gph
        gpus = []
        for _ in range(count):
            low = ~m & (m + 1)  # lowest clear bit
            m |= low
            gpus.append(ids[base + low.bit_length() - 1])
        taken[host] = m
        return gpus

    def add_job(self, job: JobSpec, racks_per_unit: list[int]) -> None:
        """Materialize a job given the target rack of each TP unit: each
        unit takes the lowest free slots of the host ``_pick_host``
        picks. SchedulerError, with the placement unchanged,
        unless the list names one rack of the topology per unit, each
        rack fits its units and the job is not placed."""
        job_id, unit, num_workers = job.job_id, job.tp_degree, job.num_workers
        if len(racks_per_unit) * unit != num_workers:
            raise SchedulerError(
                f"job {job_id} has {num_workers // unit} TP units, but "
                f"{len(racks_per_unit)} racks are given")
        if job_id in self._jobs:
            raise SchedulerError(f"job {job_id} is already placed")
        for rack, units in Counter(racks_per_unit).items():
            # each unit a host takes lowers its free // unit by exactly
            # one, so the rack fits iff the sum of those covers its units
            if not (0 <= rack < self.topology.num_racks
                    and self.rack_free_units(rack, unit) >= units):
                raise SchedulerError(
                    f"rack {rack} cannot fit {units} units of {unit}")
        gpus = self._workers[job_id] = [None] * num_workers
        placed = 0
        for rack, run in groupby(racks_per_unit):
            units = len(list(run))
            while units:
                # taking a unit only raises the host's taken count, so the
                # host picked stays the pick for as many of the run's
                # units as it fits, and takes them in one step
                host = self._pick_host(rack, unit)
                count = min(units, self.free_slots(rack, host) // unit)
                gpus[placed:placed + count * unit] = self._take(
                    rack, host, count * unit)
                placed += count * unit
                units -= count
        self._jobs[job_id] = job

    def _pick_host(self, rack: int, unit: int) -> int:
        """The rack's ``best_fit_host`` for a unit, which packs jobs
        onto the fewest hosts."""
        gph = self.topology.gpus_per_host
        host = best_fit_host([gph - m.bit_count() for m in self._taken[rack]],
                             unit)
        if host is None:
            raise SchedulerError(f"rack {rack} cannot fit a unit of {unit}")
        return host

    def remove_job(self, job_id: int) -> None:
        if job_id not in self._jobs:
            raise SchedulerError(f"unknown job id {job_id}")
        job = self._jobs.pop(job_id)
        for i in range(job.num_workers):
            self.unassign((job_id, i))
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
        if job.job_id in self.placement.jobs:
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
