"""defragsim benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload figure-defrag --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. With ``--trace 0`` the run sets up the
workload's inputs several times (``setup_s`` is the median), then runs the
workload body whole, again and again, until ``--seconds`` have passed
(``run_s`` is the median pass), and checks every pass's output. Both
times are calibrated against host speed while they run and given in
reference seconds (bench/speed.py). The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics. With ``--trace 1`` the run first starts an
untraced run of the same workload in a child process, then makes one
traced pass in its own process, and reports the per-layer metrics, the
tracing overhead against the child's host seconds, and whether the traced
outcome equals the untraced one. See bench/README.md for the workloads
and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
SPANS_DIR = REPO / ".bench_out"

SETUP_REPEATS = 5
SLOWDOWN_FLOOR = 1 - 1e-9
CHILD_TIMEOUT_S = 170


def _import_program() -> None:
    """Import the simulator from the checkout's source tree."""
    if not (REPO / "src" / "defragsim").is_dir():
        raise SystemExit(f"defragsim sources not found under {REPO / 'src'}")
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: F401  (imports defragsim)


# -- per-workload inputs, bodies and checks --------------------------------


class Check:
    """Counts failed operations and names every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def fail(self, what: str) -> None:
        """A run-level failure: counted as one failed operation."""
        self.failed += 1
        self.problems.append(what)


def make_inputs(name: str, seed: int):
    import workloads
    if name in workloads.SIMULATIONS:
        return workloads.figure_inputs(name)
    return workloads.solver_batch(seed)


def run_body(name: str, inputs):
    import workloads
    if name in workloads.SIMULATIONS:
        return workloads.run_figure(inputs)
    return [workloads.solve_one(draw.placement) for draw in inputs]


def outcome_of(name: str, inputs, output) -> dict:
    """What the run computed, for comparison between runs."""
    import workloads
    if name in workloads.SIMULATIONS:
        summary = workloads.summary_of(output, inputs)
        return {"event_log_hash": output.event_log_hash, "summary": summary}
    digest = hashlib.blake2b(digest_size=16)
    for _, plan in output:
        digest.update(repr((plan.move_count, plan.target)).encode())
    return {"plans_digest": digest.hexdigest(),
            "moves": sum(plan.move_count for _, plan in output),
            "nodes": sum(plan.stats.nodes_explored for _, plan in output)}


def check_simulation(name: str, inputs, result, check: Check) -> None:
    finished = {r.job_id: r for r in result.records}
    for job in inputs.trace.jobs:
        record = finished.get(job.job_id)
        if record is None:
            check.op(False, f"job {job.job_id} did not finish")
        else:
            check.op(record.slowdown >= SLOWDOWN_FLOOR,
                     f"job {job.job_id} slowdown {record.slowdown!r} < 1")
    if name == "figure-defrag" and result.isolation_violations:
        check.fail(f"isolation_violations = {result.isolation_violations}")


def check_plans(inputs, output, check: Check) -> None:
    import workloads
    from defragsim import defrag
    for i, (draw, (instance, plan)) in enumerate(zip(inputs, output)):
        ok = (workloads.rows_fit(instance, plan.target)
              and plan.move_count == defrag.worker_moves(instance,
                                                         plan.target)
              and 1 <= plan.move_count <= draw.repair_moves
              and plan.stats.optimal)
        check.op(ok, f"instance {i}: plan breaks capacity, threshold or "
                     f"move count ({plan.move_count} moves, known repair "
                     f"{draw.repair_moves})")


def check_output(name: str, inputs, output, check: Check) -> None:
    import workloads
    if name in workloads.SIMULATIONS:
        check_simulation(name, inputs, output, check)
    else:
        check_plans(inputs, output, check)


def oracle_cross_check(seed: int, check: Check) -> int:
    """Solve the seed's oracle instances and compare each plan with the
    brute-force minimum; return how many were compared."""
    import workloads
    from defragsim import defrag
    batch = workloads.oracle_batch(seed)
    for i, draw in enumerate(batch):
        instance, plan = workloads.solve_one(draw.placement)
        best = defrag.brute_force_min_moves(
            instance, enumeration_limit=workloads.ORACLE_PLACEMENTS)
        check.op(plan.move_count == best,
                 f"oracle instance {i}: solver {plan.move_count} moves, "
                 f"brute force {best}")
    return len(batch)


def golden_problems(name: str, outcome: dict) -> list[str]:
    """Fields where a simulation differs from its golden record."""
    golden = json.loads(GOLDEN.read_text()).get(name)
    if golden is None:
        return [f"no golden record for {name}"]
    problems = []
    if outcome["event_log_hash"] != golden["event_log_hash"]:
        problems.append(f"event_log_hash {outcome['event_log_hash']} != "
                        f"golden {golden['event_log_hash']}")
    for key, want in golden["summary"].items():
        got = outcome["summary"].get(key)
        if got != want:
            problems.append(f"summary.{key} {got!r} != golden {want!r}")
    return problems


# -- the two kinds of run ----------------------------------------------------


def _result_line(correct: bool, check: Check, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def _print_table(title: str, rows: dict) -> None:
    print(title)
    for key, (value, unit) in rows.items():
        print(f"  {key:44s} {value!r:>24} {unit}")


def measured_run(name: str, seed: int, seconds: float) -> int:
    speed.warm_up()
    _, imported = speed.timed(_import_program)
    import workloads

    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, reading = speed.timed(make_inputs, name, seed)
        setups.append(reading)

    check = Check()
    passes = []
    outcome = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        output, reading = speed.timed(run_body, name, inputs)
        passes.append(reading)
        check_output(name, inputs, output, check)
        this = outcome_of(name, inputs, output)
        if outcome is None:
            outcome = this
        elif this != outcome:
            check.fail(f"pass {len(passes) - 1} computed another outcome "
                       f"than pass 0")
        output = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    mismatches = []
    if name in workloads.SIMULATIONS:
        summary = outcome["summary"]
        extra = {"p50_slowdown": (summary["p50_slowdown"], "x"),
                 "p90_slowdown": (summary["p90_slowdown"], "x"),
                 "makespan_s": (summary["makespan"], "s"),
                 "migrations": (summary["total_migrations"], "count")}
        mismatches = golden_problems(name, outcome)
        for problem in mismatches:
            print(f"GOLDEN MISMATCH {name}: {problem}")
        if not mismatches:
            print(f"golden record {name}: match "
                  f"(event_log_hash {outcome['event_log_hash']})")
    else:
        extra = {"oracle_compared": (oracle_cross_check(seed, check),
                                     "count")}
    extra.update({"ops": (check.attempted, "count"),
                  "failed_ops": (check.failed, "count")})
    for problem in check.problems:
        print(f"FAILED {name}: {problem}")
    print("outcome " + json.dumps(outcome, sort_keys=True))
    correct = check.failed == 0 and not mismatches

    kernel_ms = [1e3 * r.kernel_mean_s for r in passes]
    timing = {
        "passes": (len(passes), "count"),
        "run_host_s": (statistics.median(r.host_s for r in passes), "s"),
        "kernel_ms": (statistics.median(kernel_ms), "ms"),
        "kernel_ms_range": (f"{min(kernel_ms):.3f}..{max(kernel_ms):.3f}",
                            "ms"),
        "kernel_share": (sum(r.wall_s - r.host_s for r in passes)
                         / sum(r.wall_s for r in passes), "ratio"),
    }
    print("timing " + json.dumps({k: v for k, (v, _) in timing.items()}))
    metrics = {
        "setup_s": (imported.ref_s
                    + statistics.median(r.ref_s for r in setups), "s"),
        "run_s": (statistics.median(r.ref_s for r in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    _print_table(f"{name} seed {seed}: simulated outcome and checks", extra)
    _print_table(f"{name} seed {seed}: host timing and calibration", timing)
    _print_table(f"{name} seed {seed}: end-to-end metrics (reference "
                 f"seconds, see bench/speed.py)", metrics)
    print(_result_line(correct, check, metrics))
    return 0


def _child_run(name: str, seed: int, seconds: float):
    """An untraced run in a child process: (outcome, host timing, result
    object)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"untraced child run exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    tagged = {tag: json.loads(line.removeprefix(tag + " "))
              for line in lines for tag in ("outcome", "timing")
              if line.startswith(tag + " ")}
    return tagged["outcome"], tagged["timing"], json.loads(lines[-1])


def traced_run(name: str, seed: int, seconds: float) -> int:
    untraced_outcome, timing, untraced = _child_run(name, seed, seconds)
    untraced_run_s = timing["run_host_s"]

    _import_program()
    import tracer

    setup = tracer.Tracer()
    with tracer.installed(setup):
        inputs = make_inputs(name, seed)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        t0 = time.perf_counter()
        output = run_body(name, inputs)
        body_s = time.perf_counter() - t0
    SPANS_DIR.mkdir(exist_ok=True)
    tr.write_spans(SPANS_DIR / f"spans-{name}-seed{seed}.jsonl")

    check = Check()
    check_output(name, inputs, output, check)
    outcome = outcome_of(name, inputs, output)
    if outcome != untraced_outcome:
        check.fail("traced outcome differs from the untraced run")
    for problem in check.problems:
        print(f"FAILED {name} (traced): {problem}")
    print("outcome " + json.dumps(outcome, sort_keys=True))

    metrics = tracer.layer_metrics(tr, body_s, setup)
    metrics["tracing.run_s"] = (body_s, "s")
    metrics["tracing.overhead_ratio"] = (body_s / untraced_run_s - 1,
                                         "ratio")
    _print_table(f"{name} seed {seed}: per-layer metrics (traced pass, "
                 f"untraced host run_s {untraced_run_s:.4f} s)", metrics)
    check.attempted += untraced["attempted"]
    check.failed += untraced["failed"]
    correct = untraced["correct"] and check.failed == 0
    print(_result_line(correct, check, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure-defrag", "figure-sglb",
                                 "defrag-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        return traced_run(args.workload, args.seed, args.seconds)
    return measured_run(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
