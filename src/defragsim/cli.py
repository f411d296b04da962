"""Command-line experiment runner.

Subcommands:
  run       execute every (algorithm, load, seed) cell of a config
  sweep     re-run the config along one axis (load, oversubscription,
            threshold) and collect a grid of summaries
  validate  parse and validate a config, printing the resolved values
  oracle    run the brute-force minimum-move oracle on a solver
            instance file and compare it with the exact solver

Exit status: 0 on success, 2 on configuration errors (a bad config or
instance file), 3 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .config import (
    ConfigError, ExperimentConfig, check_algorithms, load_config,
)
from .defrag import (
    InfeasibleError, OracleTooLargeError, brute_force_min_moves,
    load_instance, solve,
)
from .metrics import export_run, run_tag, write_summary
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


def _run_cells(config: ExperimentConfig, out_dir: Path,
               check_invariants: bool = False,
               events_dir: Path | None = None):
    """Run every (load, seed, algorithm) cell of the config; return
    summary rows."""
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
                print(f"{algorithm} load={load:g} seed={seed}: "
                      f"mean={summary.mean_slowdown:.4f} "
                      f"p99={summary.p99_slowdown:.4f} "
                      f"migrations={summary.total_migrations}")
    return summaries


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.algorithms:
        config.algorithms = args.algorithms.split(",")
        check_algorithms(config.algorithms)
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be at least 1")
        config.trace.num_seeds = args.seeds
    out_dir = Path(args.out or config.output_dir)
    summaries = _run_cells(config, out_dir,
                           check_invariants=args.check_invariants,
                           events_dir=Path(args.events) if args.events
                           else None)
    write_summary(summaries, out_dir / "summary.json")
    print(f"wrote {len(summaries)} run(s) to {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = config.sweep.axis_values(args.axis)
    base_out = Path(args.out or config.output_dir)
    grid = []
    for value in values:
        cell_config = load_config(args.config)  # fresh copy per cell
        if args.axis == "load":
            cell_config.trace.loads = [value]
        elif args.axis == "oversubscription":
            # oversubscription = aggregate NIC capacity / uplink capacity
            topo = cell_config.topology
            topo.uplink_bandwidth_gbps = (
                topo.hosts_per_rack * topo.gpus_per_host
                * topo.nic_bandwidth_gbps / (topo.uplinks_per_tor * value))
        elif args.axis == "threshold":
            cell_config.controller.threshold = value
        out_dir = base_out / f"sweep_{args.axis}" / f"{value:g}"
        summaries = _run_cells(cell_config, out_dir,
                               check_invariants=args.check_invariants)
        write_summary(summaries, out_dir / "summary.json")
        grid.append({"axis": args.axis, "value": value,
                     "runs": [s.as_dict() for s in summaries]})
    grid_path = base_out / f"sweep_{args.axis}.json"
    grid_path.parent.mkdir(parents=True, exist_ok=True)
    with open(grid_path, "w") as f:
        json.dump({"cells": grid}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(grid)} sweep cell(s) to {grid_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
    print("config OK")
    return EXIT_OK


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
    if plan.stats.optimal and plan.move_count != optimum:
        print("MISMATCH: solver claims optimality but disagrees with "
              "the oracle", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


CHECK_INVARIANTS_HELP = (
    "audit link capacity conservation and the incremental rates against "
    "a full max-min solve after every rate recomputation, each cached "
    "iteration plan, memoised flow path and the cached demand list "
    "against fresh ones, that every skipped SGLB rebalance would move "
    "nothing, and at the end of every timestamp the slot accounting, "
    "that the placed jobs are exactly the running ones and, with no "
    "migration batch in flight, that the queue's head does not fit "
    "(exit 3 on a violation)")


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
                         choices=("load", "oversubscription", "threshold"))
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
