"""Command-line experiment runner.

Subcommands:
  run       execute every (algorithm, load, seed) cell of a config
  sweep     for each value of one axis (load, oversubscription,
            threshold), run the cells of the config with that one field
            replaced, as ``run`` would, and collect a grid of summaries
  validate  parse and validate a config, printing the resolved values
  oracle    run the brute-force minimum-move oracle on a solver
            instance file, check the exact solver's plan and compare
            its move count with the oracle's

Exit status: 0 on success, 2 on configuration errors (a bad config or
instance file, or one that cannot be read), 3 on internal invariant
violations (including a solver plan that ``oracle`` finds invalid).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .config import SWEEP_AXES, ConfigError, ExperimentConfig, load_config
from .defrag import (
    InfeasibleError, MigrationPlan, OracleTooLargeError, SolverInstance,
    brute_force_min_moves, load_instance, ring_walk, solve, worker_moves,
)
from .metrics import cell_name, export_run, run_tag, write_json
from .simulate import run_simulation
from .workload import generate_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _event_file(events_dir: Path | None, algorithm: str, load: float,
                seed: int):
    """The open event-log file of one cell, or None without a directory."""
    if events_dir is None:
        return contextlib.nullcontext()
    events_dir.mkdir(parents=True, exist_ok=True)
    return open(events_dir / f"events_{run_tag(algorithm, load, seed)}.log",
                "wb")


def _run_config(config: ExperimentConfig, out_dir: Path,
                check_invariants: bool = False,
                events_dir: Path | None = None):
    """Run every (load, seed, algorithm) cell of the config; write their
    files and summary.json to ``out_dir`` and return their summaries."""
    topology = config.topology.build()
    trace_cfg = config.trace.trace_config()
    ctl = config.controller
    summaries = []
    for load in config.trace.loads:
        for run_index in range(config.trace.num_seeds):
            seed = config.trace.base_seed + run_index
            trace = generate_trace(topology, load, seed=seed,
                                   num_jobs=config.trace.num_jobs,
                                   cfg=trace_cfg)
            for algorithm in config.algorithms:
                with _event_file(events_dir, algorithm, load,
                                 seed) as event_log:
                    result = run_simulation(
                        topology, trace, algorithm, threshold=ctl.threshold,
                        solver_time_limit=ctl.solver_time_limit,
                        max_moves=ctl.max_moves,
                        check_isolation=True,
                        check_invariants=check_invariants,
                        event_log=event_log)
                summary = export_run(result, load, out_dir)
                summaries.append(summary)
                print(f"{algorithm} load={cell_name(load)} seed={seed}: "
                      f"mean={summary.mean_slowdown:.4f} "
                      f"p99={summary.p99_slowdown:.4f} "
                      f"migrations={summary.total_migrations}")
    write_json({"runs": [s.as_dict() for s in summaries]},
               out_dir / "summary.json")
    return summaries


def cmd_run(args) -> int:
    config = load_config(args.config)
    # a replaced config is checked as a loaded one is
    if args.algorithms is not None:
        config = dataclasses.replace(config, algorithms=(
            args.algorithms.split(",") if args.algorithms else []))
    if args.seeds is not None:
        config = dataclasses.replace(config, trace=dataclasses.replace(
            config.trace, num_seeds=args.seeds))
    out_dir = Path(args.out or config.output_dir)
    summaries = _run_config(config, out_dir,
                            check_invariants=args.check_invariants,
                            events_dir=Path(args.events) if args.events
                            else None)
    print(f"wrote {len(summaries)} run(s) to {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    base_out = Path(args.out or config.output_dir)
    grid = []
    for value in config.sweep.axis_values(args.axis):
        out_dir = base_out / f"sweep_{args.axis}" / cell_name(value)
        summaries = _run_config(config.sweep_cell(args.axis, value), out_dir,
                                check_invariants=args.check_invariants)
        grid.append({"axis": args.axis, "value": value,
                     "runs": [s.as_dict() for s in summaries]})
    grid_path = base_out / f"sweep_{args.axis}.json"
    write_json({"cells": grid}, grid_path)
    print(f"wrote {len(grid)} sweep cell(s) to {grid_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
    print("config OK")
    return EXIT_OK


def _plan_faults(instance: SolverInstance, plan: MigrationPlan) -> list[str]:
    """What is wrong with ``plan`` as a plan of ``instance``: a row that
    does not place its job's units, a rack over its capacity or over the
    threshold (with the frozen base load), or a move count that is not
    the plan's worker moves."""
    faults = []
    if len(plan.target) != len(instance.jobs):
        return [f"{len(plan.target)} rows for {len(instance.jobs)} jobs"]
    used = [0] * instance.num_racks
    for job, row in zip(instance.jobs, plan.target):
        if (len(row) != instance.num_racks or min(row) < 0
                or sum(row) != job.units):
            faults.append(f"job {job.key}: row {list(row)} does not place "
                          f"its {job.units} units")
            continue
        for t, v in enumerate(row):
            used[t] += job.unit_size * v
    if faults:
        return faults
    for t, (u, cap) in enumerate(zip(used, instance.capacities)):
        if u > cap:
            faults.append(f"rack {t}: {u} workers over its capacity {cap}")
    _, loads = ring_walk(instance.jobs, plan.target, instance.base_load)
    for t, load in enumerate(loads):
        if load > instance.threshold:
            faults.append(f"rack {t}: ring load {load} over the threshold "
                          f"{instance.threshold:g}")
    moves = worker_moves(instance, plan.target)
    if plan.move_count != moves:
        faults.append(f"move count {plan.move_count}, but the plan moves "
                      f"{moves} workers")
    return faults


def cmd_oracle(args) -> int:
    try:
        instance = load_instance(args.instance)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.instance} is not a solver instance: "
                          f"{type(exc).__name__}: {exc}") from exc
    try:
        optimum = brute_force_min_moves(instance)
    except InfeasibleError:
        print("infeasible: no placement satisfies the threshold")
        try:
            plan = solve(instance)
        except InfeasibleError:
            print("solver agrees: infeasible")
            return EXIT_OK
        print(f"MISMATCH: solver returned a {plan.move_count}-move plan "
              "for an instance the oracle finds infeasible",
              file=sys.stderr)
        return EXIT_INVARIANT
    except OracleTooLargeError as exc:
        print(f"instance too large for exhaustive enumeration: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"oracle minimum moves: {optimum}")
    try:
        plan = solve(instance)
    except InfeasibleError:
        print("MISMATCH: solver finds it infeasible", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"solver moves: {plan.move_count} "
          f"(optimal={plan.stats.optimal}, "
          f"nodes={plan.stats.nodes_explored}, "
          f"time={plan.stats.solve_time:.3f}s)")
    faults = _plan_faults(instance, plan)
    if faults:
        for fault in faults:
            print(f"INVALID PLAN: {fault}", file=sys.stderr)
        return EXIT_INVARIANT
    if plan.stats.optimal and plan.move_count != optimum:
        print("MISMATCH: solver claims optimality but disagrees with "
              "the oracle", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


CHECK_INVARIANTS_HELP = (
    "audit the run's internal invariants, as listed in README's "
    "\"Command line\" section; exit 3 on a violation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defragsim",
        description="Flow-level simulator for GPU cluster "
                    "defragmentation and routing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all cells of an experiment")
    p_run.add_argument("config")
    p_run.add_argument("--algorithms",
                       help="comma-separated subset to run")
    p_run.add_argument("--seeds", type=int,
                       help="number of seeds (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--check-invariants", action="store_true",
                       help=CHECK_INVARIANTS_HELP)
    p_run.add_argument("--events", metavar="DIR",
                       help="write each run's event log, the exact lines "
                            "its event_log_hash is fed, to "
                            "DIR/events_<algorithm>_load<load>_seed<seed>"
                            ".log")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one experiment axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("--out", help="output directory (overrides config)")
    p_sweep.add_argument("--check-invariants", action="store_true",
                         help=CHECK_INVARIANTS_HELP)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force a solver instance file")
    p_oracle.add_argument("instance")
    p_oracle.set_defaults(fn=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
