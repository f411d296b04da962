"""Metric aggregation and plot-ready file export.

One simulation run produces a per-job CSV, a fragmentation/utilization
time-series CSV, a solver-stats CSV, and a JSON summary with
nearest-rank percentiles and the controller's outcome counts. Files are written atomically (temp file +
rename) so partially written results never shadow a finished run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .simulate import SimulationResult

JOB_COLUMNS = ("job_id", "model", "num_workers", "arrival", "started",
               "finished", "ideal", "actual", "slowdown", "queue_wait",
               "migrations", "downtime")
SERIES_COLUMNS = ("time", "max_rack_degree", "fragmented_groups",
                  "max_uplink_utilization")
SOLVER_COLUMNS = ("time", "move_count", "solve_time", "nodes_explored",
                  "optimal", "duration")


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: smallest value with at least pct% of the
    sample at or below it. ``sorted_values`` must be ascending."""
    if not sorted_values:
        raise ValueError("percentile of empty sample")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    rank = math.ceil(pct / 100 * len(sorted_values))
    return sorted_values[rank - 1]


@dataclass
class RunSummary:
    algorithm: str
    seed: int
    load: float
    num_jobs: int
    mean_slowdown: float
    p50_slowdown: float
    p90_slowdown: float
    p99_slowdown: float
    max_slowdown: float
    total_migrations: int
    defrag_events: int
    mean_moves_per_event: float
    total_downtime: float
    isolation_violations: int
    makespan: float
    event_log_hash: str
    controller_outcomes: dict[str, int]

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def summarize(result: SimulationResult, load: float) -> RunSummary:
    slowdowns = sorted(r.slowdown for r in result.records)
    moves = [e.stats.move_count for e in result.defrag_events]
    return RunSummary(
        algorithm=result.algorithm,
        seed=result.seed,
        load=load,
        num_jobs=len(result.records),
        mean_slowdown=statistics.fmean(slowdowns) if slowdowns else 0.0,
        p50_slowdown=nearest_rank(slowdowns, 50) if slowdowns else 0.0,
        p90_slowdown=nearest_rank(slowdowns, 90) if slowdowns else 0.0,
        p99_slowdown=nearest_rank(slowdowns, 99) if slowdowns else 0.0,
        max_slowdown=slowdowns[-1] if slowdowns else 0.0,
        total_migrations=sum(moves),
        defrag_events=len(moves),
        mean_moves_per_event=statistics.fmean(moves) if moves else 0.0,
        total_downtime=sum(r.downtime for r in result.records),
        isolation_violations=result.isolation_violations,
        makespan=result.makespan,
        event_log_hash=result.event_log_hash,
        controller_outcomes=dict(result.controller_outcomes),
    )


def _atomic_write(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as f:
        write_fn(f)
    os.replace(tmp, path)


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    def body(f):
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)
    _atomic_write(path, body)


def write_summary(summaries: Sequence[RunSummary], path: Path) -> None:
    def body(f):
        json.dump({"runs": [s.as_dict() for s in summaries]}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    _atomic_write(path, body)


def run_tag(algorithm: str, load: float, seed: int) -> str:
    return f"{algorithm}_load{load:g}_seed{seed}"


def export_run(result: SimulationResult, load: float,
               out_dir: Path) -> RunSummary:
    """Write all per-run files; return the aggregate summary row."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = run_tag(result.algorithm, load, result.seed)
    _write_csv(out_dir / f"jobs_{tag}.csv", JOB_COLUMNS, (
        [r.job_id, r.model, r.num_workers,
         f"{r.arrival:.6f}", f"{r.started:.6f}", f"{r.finished:.6f}",
         f"{r.ideal:.6f}", f"{r.finished - r.started:.6f}",
         f"{r.slowdown:.6f}", f"{r.queue_wait:.6f}",
         r.migrations, f"{r.downtime:.6f}"]
        for r in sorted(result.records, key=lambda r: r.job_id)))
    _write_csv(out_dir / f"series_{tag}.csv", SERIES_COLUMNS, (
        [f"{t:.6f}", max_deg, groups, f"{util:.6f}"]
        for t, max_deg, groups, util in result.frag_series))
    _write_csv(out_dir / f"solver_{tag}.csv", SOLVER_COLUMNS, (
        [f"{e.time:.6f}", e.stats.move_count, f"{e.stats.solve_time:.6f}",
         e.stats.nodes_explored, int(e.stats.optimal), f"{e.duration:.6f}"]
        for e in result.defrag_events))
    return summarize(result, load)
