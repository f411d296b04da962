"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``CRITERION nn PASS/FAIL`` line (visible with ``pytest -s``; the
per-test verdicts of ``pytest -v`` carry the same information). Expensive
simulation runs are shared through module-scoped fixtures.
"""

import itertools
import math
import random
import statistics
from pathlib import Path

import conftest
import pytest

from defragsim.config import load_config
from defragsim.defrag import (
    InfeasibleError, SolverJob, brute_force_min_moves, solve,
)
from defragsim.flowsim import maxmin_rates
from defragsim.fragmentation import fragmentation_degree
from defragsim.metrics import summarize
from defragsim.routing import edge_color
from defragsim.simulate import REINIT_SECONDS, run_simulation
from defragsim.topology import ClusterTopology
from defragsim.workload import DEFAULT_TEMPLATES, TraceConfig, generate_trace
from tests.test_defrag import random_instance, uniform_instance
from tests.test_flowsim import waterfill_oracle
from tests.test_fragmentation import left_to_right
from tests.test_simulate import SMALL_CFG, SMALL_TOPO
from tests.test_workload import make_job

# The desk-scale reproduction cluster (256 GPUs, two uplinks per ToR) and
# its trace, as the shipped figure config gives them.
FIGURE = load_config(Path(__file__).resolve().parents[1] / "configs"
                     / "figure.yaml")
FIGURE_TOPO = FIGURE.topology.build()
FIGURE_CFG = FIGURE.trace.trace_config()
FIGURE_SEED = FIGURE.trace.base_seed
FIGURE_LOAD = FIGURE.trace.loads[0]
FIGURE_JOBS = FIGURE.trace.num_jobs


def _report(num: int, label: str, passed: bool) -> None:
    line = f"CRITERION {num:02d} {'PASS' if passed else 'FAIL'}: {label}"
    print("\n" + line)
    conftest.CRITERION_LINES.append(line)
    assert passed, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def figure_runs():
    """The five compared algorithms, plus spray and the two defrag
    ablations, on the shared high-load figure trace."""
    trace = generate_trace(FIGURE_TOPO, FIGURE_LOAD, seed=FIGURE_SEED,
                           num_jobs=FIGURE_JOBS, cfg=FIGURE_CFG)
    runs = {}
    for algorithm in ("defrag-perfect", "perfect", "sglb", "crux", "ecmp",
                      "spray", "defrag-ecmp", "defrag-crux"):
        result = run_simulation(FIGURE_TOPO, trace, algorithm,
                                solver_time_limit=5.0, check_isolation=True)
        runs[algorithm] = summarize(result, FIGURE_LOAD), result
    return runs


@pytest.fixture(scope="module")
def steady_state_run():
    """Defragmentation on a steady high-load trace of rack-scale jobs."""
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES[:4], max_workers=16,
                      pp_choices=(1,), size_choices=tuple(range(8, 17)),
                      iterations_min=20, iterations_max=60)
    trace = generate_trace(FIGURE_TOPO, 0.9, seed=7, num_jobs=60, cfg=cfg)
    return run_simulation(FIGURE_TOPO, trace, "defrag-perfect",
                          solver_time_limit=5.0, check_isolation=True)


@pytest.fixture(scope="module")
def pooled_solver_log():
    """Solve log pooled over many short traces on the small cluster."""
    events = []
    for seed in range(30):
        trace = generate_trace(SMALL_TOPO, 0.9, seed=seed, num_jobs=25,
                               cfg=SMALL_CFG)
        result = run_simulation(SMALL_TOPO, trace, "defrag-perfect",
                                solver_time_limit=5.0)
        events.extend(result.defrag_events)
    return events


# -- property criteria -----------------------------------------------------


def test_criterion_01_sequential_placement_bound():
    rng = random.Random(101)
    worst_pure = worst_tp = 0
    for trial in range(1000):
        racks = rng.randint(2, 6)
        hosts = rng.randint(1, 3)
        gpus = rng.choice((4, 8))
        topo = ClusterTopology(racks, hosts, gpus, 2, 400e9, 400e9)
        with_tp = trial >= 700
        # one TP degree per instance: unit sizes divide the host size, so
        # sequential packing wastes no slots and demand <= capacity is
        # genuinely placeable
        tp = rng.choice((2, 4)) if with_tp else 1
        capacity = racks * hosts * gpus
        jobs, used, job_id = [], 0, 0
        while used < capacity:
            if with_tp:
                units = rng.randint(1, max(1, (capacity - used) // tp))
                workers = units * tp
                if used + workers > capacity:
                    break
                jobs.append(make_job(job_id=job_id, workers=workers,
                                     dp=units, tp=tp))
            else:
                workers = rng.randint(1, capacity - used)
                jobs.append(make_job(job_id=job_id, workers=workers,
                                     dp=workers))
            used += workers
            job_id += 1
            if rng.random() < 0.2:
                break
        placement = left_to_right(jobs, topo)
        degree = fragmentation_degree(placement).max_degree
        if with_tp:
            assert degree <= 2 * tp, (jobs, degree)
            worst_tp = max(worst_tp, degree)
        else:
            assert degree <= 2, (jobs, degree)
            worst_pure = max(worst_pure, degree)
    _report(1, "sequential placement keeps fragmentation degree <= 2 "
               "(pure DP) and <= 2*max TP degree", True)


def _compositions(total, racks, cap):
    """All ways to spread ``total`` units over ``racks`` racks, <= cap each."""
    if racks == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, racks - 1, cap):
            yield (first,) + rest


def _exhaustive_instances():
    for num_racks, cap in itertools.product((2, 3), (2, 3)):
        for threshold in (2.0, 3.0):
            for units in itertools.chain(
                    ((u,) for u in range(1, 5)),
                    itertools.combinations_with_replacement(range(1, 5), 2)):
                rows_per_job = [list(_compositions(u, num_racks, cap))
                                for u in units]
                for rows in itertools.product(*rows_per_job):
                    usage = [sum(r[t] for r in rows)
                             for t in range(num_racks)]
                    if any(v > cap for v in usage):
                        continue
                    yield uniform_instance(
                        cap, threshold,
                        [SolverJob(key=i, units=u)
                         for i, u in enumerate(units)],
                        [list(r) for r in rows])


def test_criterion_02_solver_matches_brute_force():
    checked = 0
    for instance in _exhaustive_instances():
        try:
            optimum = brute_force_min_moves(instance)
        except InfeasibleError:
            optimum = None
        try:
            plan = solve(instance, time_limit=10.0)
            assert plan.stats.optimal
            got = plan.move_count
        except InfeasibleError:
            got = None
        assert got == optimum, (instance, got, optimum)
        checked += 1
    rng = random.Random(2026)
    for _ in range(500):
        instance = random_instance(rng)
        try:
            optimum = brute_force_min_moves(instance)
        except InfeasibleError:
            optimum = None
        try:
            plan = solve(instance, time_limit=10.0)
            assert plan.stats.optimal
            got = plan.move_count
        except InfeasibleError:
            got = None
        assert got == optimum, (instance, got, optimum)
        checked += 1
    _report(2, f"solver optimal on {checked} exhaustive+random instances",
            True)


def test_criterion_03_edge_coloring_uses_exactly_delta_colors():
    rng = random.Random(303)
    for _ in range(1000):
        lefts = rng.randint(1, 6)
        rights = rng.randint(1, 6)
        left_deg = [0] * lefts
        right_deg = [0] * rights
        edges = []
        for _ in range(rng.randint(1, 24)):
            u = rng.randrange(lefts)
            v = rng.randrange(rights)
            if left_deg[u] >= 16 or right_deg[v] >= 16:
                continue
            edges.append((u, v))
            left_deg[u] += 1
            right_deg[v] += 1
        delta = max(max(left_deg), max(right_deg))
        colors, used = edge_color(edges)
        assert used == delta
        assert all(0 <= c < delta for c in colors)
        seen = set()
        for (u, v), c in zip(edges, colors):
            assert ("L", u, c) not in seen, "left endpoint reuses a color"
            assert ("R", v, c) not in seen, "right endpoint reuses a color"
            seen.add(("L", u, c))
            seen.add(("R", v, c))
    _report(3, "edge coloring proper and exactly Delta colors on 1000 "
               "random bipartite multigraphs", True)


def test_criterion_04_path_isolation(figure_runs):
    _, result = figure_runs["defrag-perfect"]
    _report(4, "no uplink carries two elephant flows at any quiescent "
               "point under defragmentation",
            result.isolation_violations == 0)


def test_criterion_05_maxmin_matches_waterfilling_oracle():
    rng = random.Random(505)
    for _ in range(1000):
        num_links = rng.randint(1, 8)
        links = [f"l{i}" for i in range(num_links)]
        caps = {link: float(rng.randint(1, 40)) for link in links}
        paths = []
        for _ in range(rng.randint(1, 12)):
            k = rng.randint(0, min(4, num_links))
            paths.append(tuple(rng.sample(links, k)))
        rates = maxmin_rates(paths, caps)
        oracle = waterfill_oracle(paths, caps)
        for got, want in zip(rates, oracle):
            if want == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(float(want), rel=1e-9)
    trace = generate_trace(SMALL_TOPO, 0.9, seed=0, num_jobs=25,
                           cfg=SMALL_CFG)
    run_simulation(SMALL_TOPO, trace, "defrag-perfect",
                   solver_time_limit=5.0, check_invariants=True)
    _report(5, "allocation equals the water-filling oracle (1000 graphs) "
               "and conserves capacity on every event of a 90%-load trace",
            True)


def test_criterion_06_determinism():
    hashes = []
    for _ in range(2):
        trace = generate_trace(SMALL_TOPO, 0.9, seed=0, num_jobs=25,
                               cfg=SMALL_CFG)
        result = run_simulation(SMALL_TOPO, trace, "defrag-perfect",
                                solver_time_limit=5.0)
        hashes.append(result.event_log_hash)
    _report(6, "identical (config, seed) reproduces the event-log hash",
            hashes[0] == hashes[1])


# -- desk-scale reproductions ----------------------------------------------


# event_log_hash of each figure-trace run. Speed-ups must reproduce them
# exactly; a change that is meant to alter what is simulated updates them
# and says why in CHANGES.md.
FIGURE_HASHES = {
    "defrag-perfect": "42935da989ca99bb17a516270a80dcac",
    "perfect": "b664266ce1e9202470ed4c8efa186f24",
    "sglb": "c7a5217094f95b7f69cbb72693cd6291",
    "crux": "d37d8b298ca7790cac473c1a638431b0",
    "ecmp": "3cf90b54594d461e54833b52378d7b04",
    "spray": "45769f67b5a260bbd84d29d7e9d83409",
    "defrag-ecmp": "4a3808bfbba15d35104431eded9c00ef",
    "defrag-crux": "60ee6f3ff16044ad7eeef9f5f6603e85",
}


def test_figure_trace_event_log_hashes(figure_runs):
    hashes = {a: result.event_log_hash
              for a, (_, result) in figure_runs.items()}
    assert hashes == FIGURE_HASHES


def test_series_samples_the_recomputed_rates(figure_runs):
    """Each fragmentation sample reads the uplink utilisation under the
    rates in force from its timestamp on: under ecmp, these two samples
    read 0.5 when they were taken before the timestamp's recompute."""
    _, result = figure_runs["ecmp"]
    util = {t: u for t, _, _, u in result.frag_series}
    assert util[1084.2985206500323] == 1.0
    assert util[1645.3538858627444] == 1.0


def test_criterion_07_slowdown_ordering(figure_runs):
    order = ("defrag-perfect", "perfect", "sglb", "crux", "ecmp")
    means = [figure_runs[a][0].mean_slowdown for a in order]
    p99s = [figure_runs[a][0].p99_slowdown for a in order]
    chain_ok = (all(a <= b for a, b in zip(means, means[1:]))
                and all(a <= b for a, b in zip(p99s, p99s[1:])))
    tail_ok = p99s[0] <= 1.10
    detail = ", ".join(f"{a}={m:.4f}/{p:.4f}"
                       for a, m, p in zip(order, means, p99s))
    _report(7, f"slowdown ordering holds and defrag p99 <= 1.10 ({detail})",
            chain_ok and tail_ok)


def test_criterion_08_move_count_distribution(steady_state_run):
    moves = [e.stats.move_count for e in steady_state_run.defrag_events]
    assert moves, "steady-state trace is expected to trigger defrag events"
    mean = statistics.fmean(moves)
    small = sum(1 for m in moves if m <= 2) / len(moves)
    _report(8, f"defrag events are small (moves={sorted(moves)}, "
               f"mean={mean:.2f}, <=2 moves: {small:.0%})",
            small >= 0.70 and 1.4 <= mean <= 2.2)


def test_criterion_09_solve_time_grows_with_move_count(pooled_solver_log):
    by_moves = {}
    for e in pooled_solver_log:
        by_moves.setdefault(e.stats.move_count, []).append(
            e.stats.solve_time)
    # medians are only meaningful for decently populated groups
    medians = [(k, statistics.median(v)) for k, v in sorted(by_moves.items())
               if len(v) >= 3]
    assert len(medians) >= 3, f"need spread in move counts, got {by_moves}"
    non_decreasing = all(a[1] <= b[1] for a, b in zip(medians, medians[1:]))
    detail = ", ".join(f"{k}:{m * 1e3:.2f}ms" for k, m in medians)
    _report(9, f"median solve time non-decreasing in move count ({detail})",
            non_decreasing)


def test_criterion_10_threshold_sweep():
    topo = ClusterTopology(8, 4, 8, 4, 400e9, 400e9)
    trace = generate_trace(topo, 0.9, seed=FIGURE_SEED, num_jobs=60,
                           cfg=FIGURE_CFG)
    migrations, means = [], []
    for threshold in (2.0, 3.0, 4.0):
        result = run_simulation(topo, trace, "defrag-perfect",
                                threshold=threshold, solver_time_limit=5.0)
        migrations.append(sum(r.migrations for r in result.records))
        means.append(statistics.fmean(r.slowdown for r in result.records))
    monotone = all(a >= b for a, b in zip(migrations, migrations[1:]))
    # threshold = uplink count sacrifices <= 1% versus the tightest bound
    within = abs(means[-1] - means[0]) <= 0.01 * means[0]
    _report(10, f"migrations non-increasing in threshold ({migrations}) "
                f"and slowdown at uplink-count threshold within 1% "
                f"({means[0]:.4f} vs {means[-1]:.4f})",
            monotone and within and migrations[0] > 0)


def test_criterion_11_spray_at_full_bisection_is_ideal():
    # two 3.2 Tb/s uplinks carry a full rack of 16 400G NICs: no
    # oversubscription, so sprayed traffic never queues
    topo = ClusterTopology(4, 2, 8, 2, 400e9, 3200e9)
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES[:4], max_workers=16,
                      pp_choices=(1,), size_choices=tuple(range(9, 17)))
    trace = generate_trace(topo, 0.5, seed=1, num_jobs=12, cfg=cfg)
    result = run_simulation(topo, trace, "spray")
    worst = max(abs(r.slowdown - 1.0) for r in result.records)
    _report(11, f"every slowdown is 1.0 within 0.1% (worst dev {worst:.2e})",
            worst <= 1e-3)


def test_criterion_12_migration_overhead():
    cfg = TraceConfig(
        templates=(DEFAULT_TEMPLATES[0], DEFAULT_TEMPLATES[2],
                   DEFAULT_TEMPLATES[3]),
        max_workers=8, pp_choices=(1,), size_choices=(5, 6, 7, 8),
        iterations_min=1200, iterations_max=2000)
    trace = generate_trace(SMALL_TOPO, 0.9, seed=0, num_jobs=20, cfg=cfg)
    result = run_simulation(SMALL_TOPO, trace, "defrag-perfect",
                            solver_time_limit=5.0)
    assert result.defrag_events, "long-job trace should trigger defrag"
    durations_ok = all(e.duration >= REINIT_SECONDS
                       for e in result.defrag_events)
    migrated = [r for r in result.records if r.migrations]
    assert migrated
    worst = max(r.downtime / r.ideal for r in migrated)
    _report(12, f"migrations last >= {REINIT_SECONDS:.0f}s and per-job "
                f"downtime stays under 1% of ideal (worst {worst:.2%})",
            durations_ok and worst < 0.01)
