"""Discrete-event simulation driver.

Wires the scheduler, defragmentation controller, routing strategy, job
execution model, and the max-min flow network into one deterministic
event loop. All events sharing a timestamp are handled before flow rates
are recomputed once, so completion times do not depend on heap ordering
accidents.

An algorithm is a (defragmentation on/off, routing strategy) pair:
``ecmp``, ``crux``, ``sglb``, ``spray`` and ``perfect`` are routing-only
baselines; ``defrag-perfect`` is the full system and ``defrag-ecmp`` /
``defrag-crux`` isolate the contribution of placement control.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

from .controller import ControllerConfig, DefragController
from .defrag import SolverStats
from .flowsim import EventQueue, FlowNetwork
from .fragmentation import StageRows, fragmentation_degree, stage_rows
from .jobmodel import (
    JobPhase, JobRun, MigrationBatch, REINIT_SECONDS,
    plan_iteration_flows, shard_bytes,
)
from .routing import STRATEGIES, FlowDemand, SglbRouting
from .scheduler import Scheduler, plan_racks
from .topology import ClusterTopology, path_between
from .workload import JobSpec, Trace, ideal_duration

ALGORITHMS = ("defrag-perfect", "perfect", "ecmp", "crux", "sglb", "spray",
              "defrag-ecmp", "defrag-crux")

# same-timestamp handling order
RANK_FLOW = 0
RANK_COMPUTE = 1
RANK_ARRIVAL = 2
RANK_REINIT = 3
RANK_EPOCH = 4

SGLB_EPOCH_SECONDS = 1.0


def parse_algorithm(name: str) -> tuple[bool, str]:
    """Split an algorithm name into (defrag enabled, routing strategy)."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"choose from {', '.join(ALGORITHMS)}")
    if name.startswith("defrag-"):
        return True, name.removeprefix("defrag-")
    return False, name


@dataclass
class JobRecord:
    job_id: int
    model: str
    num_workers: int
    arrival: float
    started: float
    finished: float
    ideal: float
    downtime: float
    migrations: int

    @property
    def queue_wait(self) -> float:
        return self.started - self.arrival

    @property
    def slowdown(self) -> float:
        return (self.finished - self.started) / self.ideal


@dataclass
class DefragEvent:
    time: float
    stats: SolverStats  # of the plan the batch carries out
    duration: float = 0.0  # barrier start to resume


@dataclass
class SimulationResult:
    algorithm: str
    seed: int
    records: list[JobRecord]
    defrag_events: list[DefragEvent]
    # (t, max rack degree, fragmented groups, max uplink utilization)
    frag_series: list[tuple[float, int, int, float]]
    event_log_hash: str
    isolation_violations: int
    makespan: float
    # DefragController.outcomes at the end of the run: checks that found
    # a violation, by outcome (all zero when the controller is off)
    controller_outcomes: dict[str, int]


class IterationPlan(NamedTuple):
    """A job's iteration flows under its current placement, with what
    launching them needs: built once per placement."""
    flows: list[FlowDemand]
    demands: list[FlowDemand]  # the cross-rack flows, which take a colour
    labels: dict[tuple, str]  # flow key -> its repr, for the log
    # per flow: colour (None for intra-rack) -> path, filled on launch
    paths: list[dict]


class Simulation:
    """One simulation of ``trace`` on ``topology`` under ``algorithm``;
    ``run`` runs it once. ``check_invariants`` audits flow conservation
    and the incremental rates against a full solve after every rate
    recomputation, each cached iteration plan, memoised flow path and the
    cached demand list against fresh ones before they are used, that
    every skipped SGLB rebalance would have moved nothing, and at the end
    of every timestamp the slot accounting, that the placed jobs are
    exactly the running ones and, with no batch in flight, that the
    queue's head does not fit; it changes no decision. ``event_log``, a
    binary file, receives every line the event log hash is fed, in
    order."""

    def __init__(self, topology: ClusterTopology, trace: Trace,
                 algorithm: str,
                 threshold: float | None = ControllerConfig.threshold,
                 solver_time_limit: float = (
                     ControllerConfig.solver_time_limit),
                 max_moves: int | None = ControllerConfig.max_moves,
                 check_isolation: bool = False,
                 check_invariants: bool = False,
                 event_log: BinaryIO | None = None):
        self.topology = topology
        self.trace = trace
        self.algorithm = algorithm
        defrag_on, routing_name = parse_algorithm(algorithm)
        self.routing = STRATEGIES[routing_name]()
        self.scheduler = Scheduler(topology)
        self.controller = DefragController(
            self.scheduler.placement,
            ControllerConfig(threshold=threshold,
                             solver_time_limit=solver_time_limit,
                             max_moves=max_moves),
            enabled=defrag_on)
        self.net = FlowNetwork(topology.link_capacities)
        self.queue = EventQueue()
        self.runs: dict[int, JobRun] = {}
        # job id -> its plan under the current placement; dropped
        # whenever its workers move or leave, and the demand list with it
        self._plans: dict[int, IterationPlan] = {}
        # every running job's demands, then the transfers'; None once a
        # job starts or ends or the transfer demands change
        self._demands: list[FlowDemand] | None = None
        self.colors: dict[tuple, int] = {}  # demand key -> routing colour
        # set once SGLB's rebalance has run on the current demands and
        # colors: running it again would move nothing
        self._balanced = False
        self.check_isolation = check_isolation
        self.check_invariants = check_invariants
        self.isolation_violations = 0

        # the batch in flight; its id is its DefragEvent's index
        self.batch: MigrationBatch | None = None
        self._records: list[JobRecord] = []
        self._defrag_events: list[DefragEvent] = []
        self._frag_series: list[tuple[float, int, int, float]] = []
        self._log = hashlib.blake2b(digest_size=16)
        self._event_log = event_log  # gets every hashed line, if set
        self.now = 0.0
        self._stamp: str | None = None  # repr(self.now), once needed

    # -- event log -----------------------------------------------------------

    def _trace_event(self, kind: str, ident) -> None:
        """Hash the line ``kind|now|ident``."""
        stamp = self._stamp
        if stamp is None:
            stamp = self._stamp = repr(self.now)
        line = f"{kind}|{stamp}|{ident}\n".encode()
        self._log.update(line)
        if self._event_log is not None:
            self._event_log.write(line)

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        for job in self.trace.jobs:
            self.queue.push(job.arrival_time, RANK_ARRIVAL, ("arrival", job))
        if isinstance(self.routing, SglbRouting) and self.trace.jobs:
            self.queue.push(SGLB_EPOCH_SECONDS, RANK_EPOCH, ("epoch",))

        heap = self.queue.heap
        pop = self.queue.pop
        while heap:
            t = heap[0][0]
            self.net.settle_to(t)
            self.now = t
            self._stamp = None
            self._flows_dirty = False
            self._placement_dirty = False
            while heap and heap[0][0] == t:
                _, _, payload = pop()
                self._dispatch(payload)
            if self._placement_dirty:
                # one build of the stage rows serves both readers
                stages = stage_rows(self.scheduler.placement)
                self._record_fragmentation(stages)
                self._maybe_defrag(stages)
                self._reassign_routing()
            if self._flows_dirty:
                if isinstance(self.routing, SglbRouting):
                    # adaptive balancing reacts to the live flow mix, not
                    # just placement changes
                    self._rebalance()
                self._recompute_network()
            if self.check_invariants:
                self._check_bookkeeping()

        assert not self.runs and not self.scheduler.queue, \
            "simulation drained with jobs still active"
        return SimulationResult(
            algorithm=self.algorithm,
            seed=self.trace.seed,
            records=self._records,
            defrag_events=self._defrag_events,
            frag_series=self._frag_series,
            event_log_hash=self._log.hexdigest(),
            isolation_violations=self.isolation_violations,
            makespan=self.now,
            controller_outcomes=dict(self.controller.outcomes),
        )

    def _dispatch(self, payload) -> None:
        kind = payload[0]
        if kind == "arrival":
            self._on_arrival(payload[1])
        elif kind == "compute":
            self._on_compute_done(payload[1])
        elif kind == "flow":
            self._on_flow_done(payload[1])
        elif kind == "reinit":
            self._on_reinit_done(payload[1])
        elif kind == "epoch":
            self._on_epoch()
        else:  # pragma: no cover
            raise AssertionError(f"unknown event {kind}")

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, job: JobSpec) -> None:
        self._trace_event("arrival", job.job_id)
        if self.batch is not None:
            # admissions pause while a migration batch is in flight so the
            # plan's destination slots stay reserved
            self.scheduler.queue.append(job)
            return
        admitted = self.scheduler.place_job(job)
        for new_job in admitted:
            self._start_job(new_job)
        if admitted:
            self._placement_dirty = True

    def _start_job(self, job: JobSpec) -> None:
        run = JobRun(job=job, start_time=self.now)
        self.runs[job.job_id] = run
        self._drop_demands()
        self._schedule_compute(run)
        self._trace_event("start", job.job_id)

    def _schedule_compute(self, run: JobRun) -> None:
        assert run.phase is JobPhase.COMPUTE
        self.queue.push(self.now + run.job.compute_time, RANK_COMPUTE,
                        ("compute", run.job.job_id))

    def _on_compute_done(self, job_id: int) -> None:
        # never stale: a job pauses, moves or leaves only between
        # iterations, so never with a compute event queued
        run = self.runs[job_id]
        run.phase = JobPhase.COMM
        self._launch_iteration_flows(run)
        if not run.pending_flows:
            self._finish_iteration(run)

    def _plan(self, job: JobSpec) -> IterationPlan:
        """The job's iteration plan, built once per placement."""
        locate = self.scheduler.placement.locate
        plan = self._plans.get(job.job_id)
        if plan is None:
            flows = plan_iteration_flows(job, locate)
            plan = IterationPlan(
                flows, [f for f in flows if f.src.rack != f.dst.rack],
                {f.key: repr(f.key) for f in flows}, [{} for _ in flows])
            self._plans[job.job_id] = plan
        elif self.check_invariants \
                and plan.flows != plan_iteration_flows(job, locate):
            raise AssertionError(
                f"stale iteration plan for job {job.job_id}")
        return plan

    def _launch_iteration_flows(self, run: JobRun) -> None:
        plan = self._plan(run.job)
        colors = self.colors
        iteration = run.iteration
        for flow, paths in zip(plan.flows, plan.paths):
            color = (colors[flow.key] if flow.src.rack != flow.dst.rack
                     else None)
            path = paths.get(color)
            if path is None:
                path = paths[color] = self._path_for(flow)
            elif self.check_invariants and path != self._path_for(flow):
                raise AssertionError(
                    f"stale flow path {path} for flow {flow.key} on colour "
                    f"{color}")
            key = (flow.key, iteration)
            self.net.add_flow(key, path, flow.size_bytes, flow)
        run.pending_flows = len(plan.flows)
        self._flows_dirty = True

    def _path_for(self, flow: FlowDemand) -> tuple:
        """The flow's links; a cross-rack flow takes its colour's."""
        color = (self.colors[flow.key] if flow.src.rack != flow.dst.rack
                 else 0)
        return tuple(path_between(self.topology, flow.src, flow.dst, color))

    def _on_flow_done(self, key) -> None:
        flow = self.net.flows.get(key)
        if flow is None or flow.eta != self.now:
            return  # superseded: a later recompute moved its completion
        self.net.remove_flow(key)
        self._flows_dirty = True
        owner = key[0]
        if owner == "mig":
            self._trace_event("flow", key)
            batch = self.batch
            batch.pending_transfers -= 1
            if not batch.pending_transfers:
                self._commit_batch()
            return
        job_id = owner[0]
        # the line str(key) would give, from the plan's cached repr
        self._trace_event(
            "flow", f"({self._plans[job_id].labels[owner]}, {key[1]})")
        run = self.runs[job_id]
        run.pending_flows -= 1
        if not run.pending_flows:
            self._finish_iteration(run)

    def _finish_iteration(self, run: JobRun) -> None:
        batch = self.batch
        at_barrier = batch is not None and batch.transfers is None
        run.finish_iteration(self.now, pause=at_barrier
                             and run.job.job_id in batch.affected_jobs)
        if run.phase is JobPhase.COMPUTE:
            self._schedule_compute(run)
        elif run.phase is JobPhase.BARRIERED:
            self._start_transfers_once_paused()
        else:
            self._on_job_done(run)

    def _on_job_done(self, run: JobRun) -> None:
        job = run.job
        self._trace_event("finish", job.job_id)
        del self.runs[job.job_id]
        del self._plans[job.job_id]
        self._drop_demands()
        self._records.append(JobRecord(
            job_id=job.job_id,
            model=job.template.name,
            num_workers=job.num_workers,
            arrival=job.arrival_time,
            started=run.start_time,
            finished=self.now,
            ideal=ideal_duration(job, self.topology),
            downtime=run.downtime,
            migrations=run.migrations,
        ))
        if self.batch is not None:
            # a departing job's pending moves are moot
            self.batch.moves = [mv for mv in self.batch.moves
                                if mv.worker[0] != job.job_id]
            self.scheduler.placement.remove_job(job.job_id)
            self._start_transfers_once_paused()
            return
        admitted = self.scheduler.release_job(job.job_id)
        for new_job in admitted:
            self._start_job(new_job)
        self._placement_dirty = True

    # -- defragmentation -----------------------------------------------------

    def _maybe_defrag(self, stages: StageRows) -> None:
        if self.batch is not None:
            return
        decision = self.controller.check(stages)
        if decision is None:
            return
        self._trace_event("defrag", decision.stats.move_count)
        self._defrag_events.append(DefragEvent(self.now, decision.stats))
        # no job is paused outside a batch, so the batch waits for every
        # job it moves to finish its in-flight iteration
        self.batch = MigrationBatch(batch_id=len(self._defrag_events) - 1,
                                    moves=list(decision.moves))

    def _start_transfers_once_paused(self) -> None:
        """Start the batch's transfers, if it is at its barrier and every
        job it still moves has paused; with no move left, commit."""
        batch = self.batch
        runs = self.runs
        if batch.transfers is not None or any(
                runs[mv.worker[0]].phase is not JobPhase.BARRIERED
                for mv in batch.moves):
            return
        if not batch.moves:
            self._commit_batch()
            return
        placement = self.scheduler.placement
        # one checkpoint flow per moving worker, to a provisional slot on
        # the destination host
        slot_cursor: dict[tuple[int, int], int] = {}
        transfers = []
        for i, mv in enumerate(batch.moves):
            job_id = mv.worker[0]
            slot = slot_cursor.get((mv.dst_rack, mv.dst_host), 0)
            slot_cursor[(mv.dst_rack, mv.dst_host)] = slot + 1
            dst = self.topology.gpu(mv.dst_rack, mv.dst_host,
                                    slot % self.topology.gpus_per_host)
            transfers.append(FlowDemand(
                ("mig", batch.batch_id, i), job_id,
                placement.locate(mv.worker), dst,
                shard_bytes(placement.jobs[job_id]), "migration"))
        # every transfer takes a mice colour, an intra-rack one too
        batch.transfers = transfers
        self._drop_demands()
        self._reassign_routing()
        for flow in transfers:
            self.net.add_flow(flow.key, self._path_for(flow), flow.size_bytes,
                              flow)
        batch.pending_transfers = len(transfers)
        self._flows_dirty = True

    def _commit_batch(self) -> None:
        batch = self.batch
        placement = self.scheduler.placement
        for mv in batch.moves:
            placement.unassign(mv.worker)
        for mv in batch.moves:
            placement.assign(mv.worker, mv.dst_rack, mv.dst_host)
            self.runs[mv.worker[0]].migrations += 1
        for job_id in batch.affected_jobs:
            del self._plans[job_id]
        batch.transfers = []
        self._drop_demands()
        # colors must match the new placement before any flow launched
        # later in this same timestamp looks them up
        self._reassign_routing()
        self.queue.push(self.now + REINIT_SECONDS, RANK_REINIT,
                        ("reinit", batch.batch_id))
        self._trace_event("commit", batch.batch_id)

    def _on_reinit_done(self, batch_id: int) -> None:
        assert self.batch is not None and self.batch.batch_id == batch_id
        self.batch = None
        event = self._defrag_events[batch_id]
        event.duration = self.now - event.time
        for run in self.runs.values():
            if run.phase is JobPhase.BARRIERED:
                run.resume(self.now)
                self._schedule_compute(run)
        self._trace_event("reinit-done", batch_id)
        # catch up on admissions deferred during the batch
        for job in self.scheduler.admit_queued():
            self._start_job(job)
        self._placement_dirty = True

    # -- routing ---------------------------------------------------------------

    def _build_demands(self) -> list[FlowDemand]:
        demands: list[FlowDemand] = []
        for job_id in sorted(self.runs):
            demands.extend(self._plan(self.runs[job_id].job).demands)
        if self.batch is not None and self.batch.transfers:
            demands.extend(self.batch.transfers)
        return demands

    def _current_demands(self) -> list[FlowDemand]:
        """Every demand routing colours: the running jobs' cross-rack
        flows and the batch's transfers, built once per change of the
        set."""
        demands = self._demands
        if demands is None:
            demands = self._demands = self._build_demands()
        elif self.check_invariants and demands != self._build_demands():
            raise AssertionError("stale cached demand list")
        return demands

    def _drop_demands(self) -> None:
        self._demands = None
        self._balanced = False

    def _reassign_routing(self) -> None:
        demands = self._current_demands()
        utilization = {job_id: float(run.job.num_workers)
                       for job_id, run in self.runs.items()}
        self.colors = self.routing.assign(
            demands, self.topology.uplinks_per_tor,
            previous=self.colors, utilization=utilization)
        self._balanced = False
        self._reroute_live_flows()
        if self.check_isolation and self.batch is None:
            # quiescent point: no migration in flight
            self._check_isolation()

    def _reroute_live_flows(self) -> None:
        changed = False
        for live in self.net.flows.values():
            flow = live.tag
            if flow.src.rack == flow.dst.rack or flow.key not in self.colors:
                continue
            path = self._path_for(flow)
            if live.path != path:
                self.net.set_path(live.key, path)
                changed = True
        if changed:
            self._flows_dirty = True

    def _rebalance(self) -> None:
        """Run SGLB's local search unless it already ran on the current
        demands and colors. It repeats passes until one moves nothing and
        reads no live rate, so a second run would move nothing."""
        uplinks = self.topology.uplinks_per_tor
        if self._balanced:
            if self.check_invariants and self.routing.rebalance(
                    self._current_demands(), uplinks, dict(self.colors)):
                raise AssertionError("skipped rebalance would have moved "
                                     "a flow")
            return
        demands = self._current_demands()
        if demands and self.routing.rebalance(demands, uplinks,
                                              self.colors):
            self._reroute_live_flows()
        self._balanced = True

    def _on_epoch(self) -> None:
        if len(self._records) < len(self.trace.jobs):
            # the epoch event stays even when it moves nothing: it splits
            # the settle intervals the event log hash depends on
            self._rebalance()
            self.queue.push(self.now + SGLB_EPOCH_SECONDS, RANK_EPOCH,
                            ("epoch",))

    def _check_isolation(self) -> None:
        """Count elephant flows sharing an uplink; with the threshold at
        or below the uplink count this should never happen under edge
        coloring."""
        uplink_base = self.topology.uplink_base
        seen: dict[int, tuple] = {}
        for live in self.net.flows.values():
            flow = live.tag
            if flow.kind != "dp" or flow.src.rack == flow.dst.rack:
                continue
            for link in live.path:
                if link < uplink_base:
                    continue
                if link in seen and seen[link] != live.key:
                    self.isolation_violations += 1
                else:
                    seen[link] = live.key

    # -- network -----------------------------------------------------------------

    def _recompute_network(self) -> None:
        for eta, key, serial in self.net.recompute():
            self.queue.push(eta, RANK_FLOW, ("flow", key), serial)
        if self.check_invariants:
            self.net.check_conservation()
            self.net.check_rates()

    def _check_bookkeeping(self) -> None:
        """Audit the placement's slot accounting, that the placed jobs
        are exactly the running ones and no queued job holds a slot, and,
        with no batch in flight, that the queue's head does not fit."""
        placement = self.scheduler.placement
        placement.check_slots()
        if placement.jobs.keys() != self.runs.keys():
            raise AssertionError(
                f"placed jobs {sorted(placement.jobs)} are not the running "
                f"jobs {sorted(self.runs)}")
        queue = self.scheduler.queue
        placed = [job.job_id for job in queue if job.job_id in placement]
        if placed:
            raise AssertionError(f"queued jobs {placed} are placed")
        if self.batch is None and queue \
                and plan_racks(placement, queue[0]) is not None:
            raise AssertionError(
                f"queued job {queue[0].job_id} fits but is not admitted")

    # -- observability -------------------------------------------------------------

    def _record_fragmentation(self, stages: StageRows) -> None:
        report = fragmentation_degree(self.scheduler.placement, stages)
        capacities = self.topology.link_capacities
        loads = self.net.link_loads()
        max_util = 0.0
        for link in range(self.topology.uplink_base, len(loads)):
            max_util = max(max_util, loads[link] / capacities[link])
        self._frag_series.append(
            (self.now, report.max_degree, report.total_fragmented_groups,
             max_util))


def run_simulation(*args, **kwargs) -> SimulationResult:
    """Run one simulation; the arguments are ``Simulation``'s."""
    return Simulation(*args, **kwargs).run()
