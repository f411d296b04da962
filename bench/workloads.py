"""Workload inputs and bodies for the defragsim benchmark.

Two kinds of workload:

* ``figure-defrag`` and ``figure-sglb`` run one algorithm over the figure
  trace of ``configs/figure.yaml`` (256 GPUs, 101 jobs, load 0.9, trace
  seed 2), exactly as ``defragsim run`` would.
* ``defrag-solve`` builds a seeded batch of placements on the figure
  topology, each violating the fragmentation threshold, and times
  ``controller.build_instance`` plus ``defrag.solve`` on each.

Every layer function is looked up through its module at call time
(``defrag.solve``, ``controller.build_instance``, ...) so the traced run
can replace it with a timing wrapper.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from defragsim import config, controller, defrag, metrics, simulate, workload
from defragsim.scheduler import Placement
from defragsim.topology import ClusterTopology
from defragsim.workload import DEFAULT_TEMPLATES, JobSpec, TraceConfig

FIGURE_CONFIG = (Path(__file__).resolve().parent.parent
                 / "configs" / "figure.yaml")
QUICK_CONFIG = FIGURE_CONFIG.parent / "quick.yaml"

SIMULATIONS = {"figure-defrag": "defrag-perfect", "figure-sglb": "sglb"}

# The controller's migration cap and ring threshold on the figure
# topology (two uplinks per ToR).
SOLVE_MAX_MOVES = 16
SOLVE_THRESHOLD = 2.0


# -- figure simulations ----------------------------------------------------


@dataclass
class FigureInputs:
    experiment: config.ExperimentConfig
    topology: ClusterTopology
    trace: workload.Trace
    algorithm: str


def figure_inputs(name: str) -> FigureInputs:
    """The figure trace, generated as ``defragsim run`` generates it.

    The trace seed is the config's ``base_seed``: the figure trace is one
    fixed input, so every run of a figure workload simulates the same
    events whatever the benchmark seed.
    """
    exp = config.load_config(FIGURE_CONFIG)
    topo = exp.topology.build()
    trace = workload.generate_trace(
        topo, exp.trace.loads[0], seed=exp.trace.base_seed,
        num_jobs=exp.trace.num_jobs, cfg=exp.trace.trace_config())
    return FigureInputs(exp, topo, trace, SIMULATIONS[name])


def run_figure(inp: FigureInputs) -> simulate.SimulationResult:
    ctl = inp.experiment.controller
    return simulate.run_simulation(
        inp.topology, inp.trace, inp.algorithm, threshold=ctl.threshold,
        solver_time_limit=ctl.solver_time_limit, max_moves=ctl.max_moves,
        check_isolation=True)


def summary_of(result: simulate.SimulationResult,
               inp: FigureInputs) -> dict:
    return metrics.summarize(result, inp.trace.target_load).as_dict()


# -- solver batch ----------------------------------------------------------

# A solver instance is a compliant placement with a few TP units moved to
# other racks: (unit moves, TP degree of the moved units, instances).
#
# Solve time is heavy-tailed in the number of moves. Over 120 draws per
# class on the figure topology, one-move instances never took 1 ms while
# four-move ones had a coefficient of variation of 3 and a 3 s maximum,
# and one two-move draw (seed 308) runs for minutes: the incumbent
# heuristics find only 12-move plans, and the depth-first search does not
# reach the 2-move repair in 3 s (over 300k nodes). A seeded draw of deeper
# instances would swing a batch's time by more than any bound a benchmark
# can hold, or past its time limit, so the batch has two parts:
#
# * SEEDED_CLASSES come from the benchmark seed. They are one-move
#   instances (4000 draws: at most 49 ms each), so per-call overhead
#   (instance building, incumbent heuristics, search set-up) shows, and
#   their sum varies little between seeds.
# * REFERENCE_CLASSES come from the fixed REFERENCE_SEED, like the fixed
#   figure trace. They carry the deep searches, including ring weight 8
#   (a moved TP-8 unit), and cost the same on every run.
SEEDED_CLASSES = ((1, 1, 200),)
REFERENCE_CLASSES = ((3, 1, 20), (4, 1, 10), (1, 8, 6))
REFERENCE_SEED = 0
# The brute-force oracle's time is erratic on instances it cannot bound:
# on the figure topology's 8 racks, same-sized one-move instances took
# 0.02 s or over 90 s, and on 4 racks one with 6e9 placements took 0.1 s
# while another ran for minutes. Its cross-check uses instances of the
# same kind on 4 racks of 16 slots, from jobs of 2 to 8 workers, with up
# to three moved units, and keeps only those of at most
# ORACLE_PLACEMENTS placements. Over 80 seeds (960 instances) the oracle
# took at most 0.3 s on one and 0.35 s on a batch, and its minimum was
# below the known repair on 4 or 5 instances of a batch.
ORACLE_CLASSES = ((1, 1, 4), (2, 1, 4), (3, 1, 4))
ORACLE_PLACEMENTS = 10 ** 6
FILL_FRACTION = 0.85
SPLIT_PROBABILITY = 0.5


def _small_job_menu(topo, seed: int) -> list[JobSpec]:
    """Jobs of 2 to 8 workers, for the 4-rack oracle topology."""
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES, max_workers=8,
                      pp_choices=(1, 2), size_choices=(2, 3, 4, 6, 8))
    return workload.generate_trace(topo, 0.9, seed=seed, num_jobs=16,
                                   cfg=cfg).jobs


def _solver_job_menu(topo, seed: int) -> list[JobSpec]:
    """Jobs from the full template menu: DP-only jobs the size of the
    figure menu, plus TP-8 and 2- and 4-stage pipeline jobs."""
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES, max_workers=32,
                      pp_choices=(1, 2, 4),
                      size_choices=(10, 12, 14, 16, 32))
    return workload.generate_trace(topo, 0.9, seed=seed, num_jobs=32,
                                   cfg=cfg).jobs


def _host_for(free: list[int], unit: int) -> int | None:
    """The host Placement would pick for a unit: least room that fits."""
    fits = [(f, h) for h, f in enumerate(free) if f >= unit]
    return min(fits)[1] if fits else None


def _compliant_placement(topo, jobs: list[JobSpec], rng: random.Random
                         ) -> Placement:
    """Place jobs stage by stage, whole on one rack or split over two,
    never letting a rack's ring load exceed the threshold."""
    placement = Placement(topo)
    free = [[topo.gpus_per_host] * topo.hosts_per_rack
            for _ in range(topo.num_racks)]
    load = [0] * topo.num_racks
    target = FILL_FRACTION * topo.total_gpus
    used = 0
    for job in jobs:
        if used + job.num_workers > target:
            continue
        trial = [row[:] for row in free]
        trial_load = list(load)
        racks: list[int] = []
        ok = True
        for _stage in range(job.pp_degree):
            units = job.dp_degree
            weight = job.tp_degree
            order = list(range(topo.num_racks))
            rng.shuffle(order)
            split = (weight <= SOLVE_THRESHOLD / 2 and units >= 2
                     and rng.random() < SPLIT_PROBABILITY)
            chosen = None
            if split:
                pairs = [(a, b) for a in order for b in order if a != b
                         and trial_load[a] + weight <= SOLVE_THRESHOLD
                         and trial_load[b] + weight <= SOLVE_THRESHOLD]
                for a, b in pairs:
                    here = rng.randint(1, units - 1)
                    if (sum(f // job.tp_degree for f in trial[a]) >= here
                            and sum(f // job.tp_degree for f in trial[b])
                            >= units - here):
                        chosen = [a] * here + [b] * (units - here)
                        trial_load[a] += weight
                        trial_load[b] += weight
                        break
            if chosen is None:
                for r in order:
                    if sum(f // job.tp_degree for f in trial[r]) >= units:
                        chosen = [r] * units
                        break
            if chosen is None:
                ok = False
                break
            for r in chosen:
                trial[r][_host_for(trial[r], job.tp_degree)] -= job.tp_degree
            racks.extend(chosen)
        if not ok:
            continue
        placement.add_job(job, racks)
        free, load = trial, trial_load
        used += job.num_workers
    return placement


def _move_unit(placement: Placement, rng: random.Random, budget: int,
               unit: int) -> int:
    """Move one TP unit of ``unit`` workers, from a random stage, to
    another rack; return the workers moved (0 if none fits the budget)."""
    topo = placement.topology
    job_ids = sorted(placement.jobs)
    rng.shuffle(job_ids)
    for job_id in job_ids:
        job = placement.jobs[job_id]
        if job.tp_degree != unit or unit > budget:
            continue
        stage = rng.randrange(job.pp_degree)
        dp = rng.randrange(job.dp_degree)
        workers = [(job_id, job.worker_index(stage, dp, tp))
                   for tp in range(unit)]
        src = placement.locate(workers[0]).rack
        racks = [r for r in range(topo.num_racks) if r != src]
        rng.shuffle(racks)
        for r in racks:
            host = _host_for([placement.free_slots(r, h)
                              for h in range(topo.hosts_per_rack)], unit)
            if host is None:
                continue
            for w in workers:
                placement.unassign(w)
            for w in workers:
                placement.assign(w, r, host)
            return unit
    return 0


def rows_fit(instance: defrag.SolverInstance, rows) -> bool:
    """Whether rack-level rows (units per job and rack) place every job
    whole and keep each rack within its capacity and the ring threshold.
    Written apart from the solver's own checks, to check its plans."""
    usage = [0] * instance.num_racks
    load = list(instance.base_load)
    for job, row in zip(instance.jobs, rows):
        if sum(row) != job.units:
            return False
        spread = sum(1 for v in row if v) >= 2
        for t, v in enumerate(row):
            usage[t] += job.unit_size * v
            if spread and v:
                load[t] += job.ring_weight
    return (all(u <= c for u, c in zip(usage, instance.capacities))
            and all(x <= instance.threshold for x in load))


def _rows_by_stage(placement: Placement) -> dict:
    stages = controller.stage_rows(placement)
    return {job.key: tuple(row)
            for job, row in zip(stages.jobs, stages.rows)}


@dataclass
class Draw:
    """A violating placement, and the cost in worker moves of the repair
    it was made from: moving the units back. The optimal plan costs at
    least 1 and at most ``repair_moves``."""
    placement: Placement
    repair_moves: int


def _violating_placements(topo, rng: random.Random, classes,
                          job_menu=_solver_job_menu) -> list[Draw]:
    """Placements on ``topo`` that each violate the threshold and are
    each repairable within the controller's move cap.

    Every placement is a compliant one with a few TP units moved to other
    racks, at most ``SOLVE_MAX_MOVES`` workers in all. A draw is kept only
    if moving the units back is a plan of the instance the controller
    builds, so the capped solve always returns a plan.
    """
    out: list[Draw] = []
    for moves, unit, count in classes:
        made = 0
        while made < count:
            jobs = job_menu(topo, rng.randrange(2 ** 31))
            placement = _compliant_placement(topo, jobs, rng)
            before = _rows_by_stage(placement)
            budget = SOLVE_MAX_MOVES
            for _ in range(moves):
                budget -= _move_unit(placement, rng, budget, unit)
            instance = controller.build_instance(placement, SOLVE_THRESHOLD)
            if instance is None:
                continue
            repair = [before[job.key] for job in instance.jobs]
            if not rows_fit(instance, repair):
                continue
            out.append(Draw(placement, defrag.worker_moves(instance, repair)))
            made += 1
    return out


def solver_batch(seed: int) -> list[Draw]:
    """The defrag-solve inputs: seeded small instances, then the fixed
    reference instances."""
    exp = config.load_config(FIGURE_CONFIG)
    topo = exp.topology.build()
    return (_violating_placements(topo, random.Random(seed), SEEDED_CLASSES)
            + _violating_placements(topo, random.Random(REFERENCE_SEED),
                                    REFERENCE_CLASSES))


def oracle_size(instance: defrag.SolverInstance) -> int:
    """Rack-level placements the brute-force oracle may enumerate: the
    product over jobs of the ways to spread its units over the racks."""
    racks = instance.num_racks
    return math.prod(math.comb(job.units + racks - 1, racks - 1)
                     for job in instance.jobs)


def oracle_batch(seed: int) -> list[Draw]:
    """Instances for the brute-force cross-check, drawn from ``seed`` like
    the seeded part of the batch, but from small jobs on the 4-rack
    topology of ``configs/quick.yaml``, keeping only those of at most
    ``ORACLE_PLACEMENTS`` placements."""
    topo = config.load_config(QUICK_CONFIG).topology.build()
    rng = random.Random(seed)
    out: list[Draw] = []
    for moves, unit, count in ORACLE_CLASSES:
        kept = 0
        while kept < count:
            [draw] = _violating_placements(topo, rng, ((moves, unit, 1),),
                                           _small_job_menu)
            instance = controller.build_instance(draw.placement,
                                                 SOLVE_THRESHOLD)
            if oracle_size(instance) <= ORACLE_PLACEMENTS:
                out.append(draw)
                kept += 1
    return out


def solve_one(placement: Placement) -> tuple[defrag.SolverInstance,
                                             defrag.MigrationPlan]:
    instance = controller.build_instance(placement, SOLVE_THRESHOLD)
    plan = defrag.solve(instance, time_limit=None,
                        max_moves=SOLVE_MAX_MOVES)
    return instance, plan
