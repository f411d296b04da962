"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import signal
import time

import pytest

import run
import speed

run._import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from defragsim import config, controller, flowsim, simulate  # noqa: E402
from defragsim.workload import generate_trace  # noqa: E402

QUICK_CONFIG = run.REPO / "configs" / "quick.yaml"


def _quick_run(algorithm: str):
    exp = config.load_config(QUICK_CONFIG)
    topo = exp.topology.build()
    trace = generate_trace(topo, exp.trace.loads[0],
                           seed=exp.trace.base_seed,
                           num_jobs=exp.trace.num_jobs,
                           cfg=exp.trace.trace_config())
    return simulate.run_simulation(topo, trace, algorithm,
                                   check_isolation=True)


@pytest.mark.parametrize("algorithm", ["defrag-perfect", "sglb"])
def test_wrappers_keep_event_log_hash(algorithm):
    plain = _quick_run(algorithm)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        traced = _quick_run(algorithm)
    assert traced.event_log_hash == plain.event_log_hash
    assert traced.records == plain.records
    assert tr.stats["flowsim.maxmin_rates"].calls > 0
    assert tr.stats["jobmodel.plan_iteration_flows"].calls > 0


def test_wrappers_are_removed_on_exit():
    originals = (flowsim.maxmin_rates, flowsim.EventQueue.push,
                 controller.solve, simulate.plan_iteration_flows)
    with tracer.installed(tracer.Tracer()):
        assert flowsim.maxmin_rates is not originals[0]
    assert (flowsim.maxmin_rates, flowsim.EventQueue.push,
            controller.solve, simulate.plan_iteration_flows) == originals


def test_self_time_excludes_nested_spans():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: sum(range(10000)))
    outer = tr.span("outer", lambda: inner() + inner())
    outer()
    o, i = tr.stats["outer"], tr.stats["inner"]
    assert i.calls == 2 and o.calls == 1
    assert o.self_time == pytest.approx(o.total - i.total)
    assert tr.top_level == pytest.approx(o.total)
    assert [span[3] for span in tr.spans] == [-1, 0, 0]


def test_same_seed_same_inputs():
    a = workloads.figure_inputs("figure-defrag").trace
    b = workloads.figure_inputs("figure-defrag").trace
    assert a.jobs == b.jobs
    first, second = workloads.solver_batch(7), workloads.solver_batch(7)
    threshold = workloads.SOLVE_THRESHOLD
    assert ([controller.build_instance(d.placement, threshold)
             for d in first]
            == [controller.build_instance(d.placement, threshold)
                for d in second])
    assert ([d.repair_moves for d in first]
            == [d.repair_moves for d in second])


def test_solver_instances_have_the_controller_shape():
    batch = workloads.solver_batch(3)
    instances = [controller.build_instance(d.placement,
                                           workloads.SOLVE_THRESHOLD)
                 for d in batch]
    assert all(inst is not None for inst in instances)
    assert all(inst.num_racks == 8
               and all(0 <= c <= 32 for c in inst.capacities)
               for inst in instances)
    weights = {job.ring_weight for inst in instances for job in inst.jobs}
    assert weights == {1, 8}
    assert any(any(inst.base_load) for inst in instances)
    # one TP-1 unit moved: the known repair is one move, so it is optimal
    seeded = sum(n for _, _, n in workloads.SEEDED_CLASSES)
    assert all(d.repair_moves == 1 for d in batch[:seeded])
    assert all(1 <= d.repair_moves <= workloads.SOLVE_MAX_MOVES
               for d in batch)


def test_held_out_seed_runs(capsys):
    seeded = sum(n for _, _, n in workloads.SEEDED_CLASSES)
    default = workloads.solver_batch(1)[:seeded]
    held_out = workloads.solver_batch(987654)[:seeded]
    assert ([controller.build_instance(d.placement, 2.0) for d in default]
            != [controller.build_instance(d.placement, 2.0)
                for d in held_out])
    assert run.main(["--workload", "defrag-solve", "--seed", "987654",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}


def test_golden_mismatch_is_named():
    golden = json.loads(run.GOLDEN.read_text())["figure-sglb"]
    changed = json.loads(json.dumps(golden))
    changed["summary"]["makespan"] += 1.0
    changed["event_log_hash"] = "0" * 32
    problems = run.golden_problems("figure-sglb", changed)
    assert any(p.startswith("event_log_hash") for p in problems)
    assert any(p.startswith("summary.makespan") for p in problems)
    assert run.golden_problems("figure-sglb", golden) == []


def test_calibrated_timing_samples_during_the_call():
    before = signal.getsignal(signal.SIGALRM)
    result, reading = speed.timed(time.sleep, 10 * speed.PERIOD_S)
    assert result is None
    # kernel calls before and after, and one per timer period between
    assert len(reading.kernel_s) >= 2 * speed.EDGE_CALLS + 3
    assert 0 < reading.host_s < reading.wall_s
    assert reading.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_calibration_kernel_is_fixed():
    rates = speed.kernel()
    assert len(rates) == 240 and all(0 < r <= 160 for r in rates)
    assert rates == speed.kernel()


def test_oracle_batch_stays_small():
    batch = workloads.oracle_batch(5)
    assert len(batch) == sum(n for _, _, n in workloads.ORACLE_CLASSES)
    instances = [controller.build_instance(d.placement, 2.0) for d in batch]
    assert all(inst.num_racks == 4 for inst in instances)
    assert all(workloads.oracle_size(inst) <= workloads.ORACLE_PLACEMENTS
               for inst in instances)
    check = run.Check()
    assert run.oracle_cross_check(5, check) == len(batch)
    assert check.failed == 0 and check.attempted == len(batch)
