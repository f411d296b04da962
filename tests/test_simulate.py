import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from defragsim import controller, defrag, flowsim, fragmentation, simulate
from defragsim.config import load_config
from defragsim.controller import SKIP_REASONS, DefragDecision
from defragsim.defrag import SolverStats
from defragsim.jobmodel import JobPhase, WorkerMove
from defragsim.scheduler import plan_racks
from defragsim.simulate import (
    ALGORITHMS, RANK_FLOW, REINIT_SECONDS, Simulation, parse_algorithm,
    run_simulation,
)
from defragsim.routing import FlowDemand, SglbRouting
from defragsim.topology import ClusterTopology, path_between
from defragsim.workload import (
    DEFAULT_TEMPLATES, Trace, TraceConfig, generate_trace, ideal_duration,
)
from tests.test_workload import make_job

REPO = Path(__file__).resolve().parents[1]
QUICK_CONFIG = REPO / "configs" / "quick.yaml"
# the shipped quick config's 64-GPU cluster and trace menu
_QUICK = load_config(QUICK_CONFIG)
SMALL_TOPO = _QUICK.topology.build()
SMALL_CFG = _QUICK.trace.trace_config()


def small_trace(seed=0, load=0.9, num_jobs=25):
    return generate_trace(SMALL_TOPO, load, seed=seed, num_jobs=num_jobs,
                          cfg=SMALL_CFG)


@pytest.fixture(scope="module")
def defrag_result():
    """One run on a trace known to trigger several migration batches."""
    return run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                          solver_time_limit=5.0, check_isolation=True)


def test_all_jobs_complete(defrag_result):
    trace = small_trace(seed=0)
    assert len(defrag_result.records) == len(trace.jobs)
    assert sorted(r.job_id for r in defrag_result.records) == sorted(
        j.job_id for j in trace.jobs)


def test_timeline_ordering(defrag_result):
    for r in defrag_result.records:
        assert r.arrival <= r.started <= r.finished
        assert r.queue_wait >= 0.0
        assert r.finished <= defrag_result.makespan


def test_slowdown_never_beats_ideal(defrag_result):
    for r in defrag_result.records:
        assert r.slowdown >= 1.0 - 1e-9


def test_determinism_identical_hashes():
    a = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                       solver_time_limit=5.0)
    b = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                       solver_time_limit=5.0)
    assert a.event_log_hash == b.event_log_hash
    assert a.makespan == b.makespan
    assert [r.finished for r in a.records] == [r.finished for r in b.records]


def test_different_seeds_differ():
    a = run_simulation(SMALL_TOPO, small_trace(seed=0), "ecmp")
    b = run_simulation(SMALL_TOPO, small_trace(seed=1), "ecmp")
    assert a.event_log_hash != b.event_log_hash


HYBRID_TOPO = ClusterTopology(8, 4, 8, 2, 400e9, 400e9)
HYBRID_CFG = TraceConfig(templates=DEFAULT_TEMPLATES, max_workers=32,
                         pp_choices=(1, 2, 4), size_choices=(16, 24, 32),
                         iterations_min=10, iterations_max=30)
# seed -> (TP-8 jobs, PP jobs, {algorithm: (event log hash, isolation
# violations)}) of a 40-job hybrid-parallel trace at load 0.9, under
# every algorithm, the controller's three included
HYBRID_PINS = {
    1: (12, 3, {
        "defrag-perfect": ("8a9e4d22c21660295dfce14061f56de2", 261),
        "defrag-ecmp": ("fbaa6d51581893e27d7996800f9abce3", 202),
        "defrag-crux": ("9c71898a182f6937c55012f20bd0d18a", 192),
        "perfect": ("a6b5e6f3c6fccf1972831f9a4a481e81", 241),
        "sglb": ("b99d9f3f76bbc837a66c4e295a3f8362", 192),
        "crux": ("9c71898a182f6937c55012f20bd0d18a", 192),
        "ecmp": ("582c513a83e3d6cd0afc5709fa65b33d", 247),
        "spray": ("79496435b33448b5e2a5544a6978d4f6", 270),
    }),
    2: (6, 7, {
        "defrag-perfect": ("607a4e3daa27e899ef6ef098ba81dfbf", 26),
        "defrag-ecmp": ("141aa548965665ac13229289626d439c", 95),
        "defrag-crux": ("bb6550c0d12d5a3c62330f2765acbc5d", 28),
        "perfect": ("83e57735300c7953b0823a05d51dee52", 110),
        "sglb": ("ece7e8dc126ac201583bc982d408e1a1", 31),
        "crux": ("a21c5ae90c08a30d568516895cdca3ad", 42),
        "ecmp": ("5770cc285b3a0dd728392d532a08ddbe", 79),
        "spray": ("558b1ffd5280c1a5f2ec2e29a896fe01", 206),
    }),
    3: (7, 7, {
        "defrag-perfect": ("f87b4c90e928b8c0a3499d12265225e4", 0),
        "defrag-ecmp": ("5177f1af605f37a409a40461fcbfa97c", 144),
        "defrag-crux": ("e0893e84ab002b19d3eca7fbe49fded1", 0),
        "perfect": ("4c113489e1b0afad0ad78427fe32b754", 78),
        "sglb": ("763c4d0feb2f8aff65dda34231def682", 78),
        "crux": ("44b06142c9296620442ab81e1c3f545c", 78),
        "ecmp": ("a126753a3535478a344a1079068653af", 188),
        "spray": ("c10b2afb8abdf0b87f36e4e55581d793", 148),
    }),
}


@pytest.mark.parametrize("seed", sorted(HYBRID_PINS))
def test_hybrid_parallel_traffic_pinned(seed):
    """TP-8 rings, PP boundary transfers and migrations of hybrid jobs
    give the pinned event log and isolation count under every routing
    scheme."""
    tp8_jobs, pp_jobs, pins = HYBRID_PINS[seed]
    trace = generate_trace(HYBRID_TOPO, 0.9, seed=seed, num_jobs=40,
                           cfg=HYBRID_CFG)
    assert sum(j.tp_degree == 8 for j in trace.jobs) == tp8_jobs
    assert sum(j.pp_degree > 1 for j in trace.jobs) == pp_jobs
    got = {}
    for algorithm in pins:
        result = run_simulation(HYBRID_TOPO, trace, algorithm, max_moves=16,
                                solver_time_limit=None, check_isolation=True)
        got[algorithm] = (result.event_log_hash,
                          result.isolation_violations)
    assert got == pins


def seeded_cell_hashes() -> dict[str, str]:
    """The event log hash of the quick config under defrag-perfect, sglb
    and defrag-crux, and of the seed-2 defrag-perfect hybrid pin."""
    config = load_config(QUICK_CONFIG)
    topology = config.topology.build()
    trace = generate_trace(topology, config.trace.loads[0], seed=0,
                           num_jobs=config.trace.num_jobs,
                           cfg=config.trace.trace_config())
    hashes = {}
    for algorithm in ("defrag-perfect", "sglb", "defrag-crux"):
        hashes[f"quick {algorithm}"] = run_simulation(
            topology, trace, algorithm,
            solver_time_limit=config.controller.solver_time_limit,
        ).event_log_hash
    trace = generate_trace(HYBRID_TOPO, 0.9, seed=2, num_jobs=40,
                           cfg=HYBRID_CFG)
    hashes["hybrid 2 defrag-perfect"] = run_simulation(
        HYBRID_TOPO, trace, "defrag-perfect", max_moves=16,
        solver_time_limit=None).event_log_hash
    return hashes


def test_runs_do_not_depend_on_the_hash_seed():
    """The iteration order of a set of str keys follows PYTHONHASHSEED;
    no event log may. One child process per seed runs every cell."""
    path = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if p])
    code = ("import json; from tests.test_simulate import "
            "seeded_cell_hashes; print(json.dumps(seeded_cell_hashes()))")
    children = [
        subprocess.Popen([sys.executable, "-c", code], cwd=REPO,
                         stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": path,
                              "PYTHONHASHSEED": seed})
        for seed in ("0", "1")]
    try:
        outputs = [child.communicate(timeout=300)[0] for child in children]
    finally:
        for child in children:
            child.kill()
    assert [child.returncode for child in children] == [0, 0]
    first, second = (json.loads(out) for out in outputs)
    assert len(first) == 4
    assert first == second
    assert first["hybrid 2 defrag-perfect"] == (
        HYBRID_PINS[2][2]["defrag-perfect"][0])


def test_defrag_events_recorded(defrag_result):
    events = defrag_result.defrag_events
    assert events, "fixture trace is expected to trigger migration batches"
    for e in events:
        assert e.stats.move_count >= 1
        assert e.stats.solve_time >= 0.0
        assert e.stats.optimal
        # barrier + checkpoint transfer + reinitialization
        assert e.duration >= REINIT_SECONDS


def test_migration_counts_match_batches(defrag_result):
    moved = sum(r.migrations for r in defrag_result.records)
    assert moved == sum(e.stats.move_count
                        for e in defrag_result.defrag_events)


def test_downtime_only_on_migrated_jobs(defrag_result):
    for r in defrag_result.records:
        if r.migrations == 0:
            assert r.downtime == 0.0
        else:
            assert r.downtime >= REINIT_SECONDS


def test_no_isolation_violations_with_defrag(defrag_result):
    assert defrag_result.isolation_violations == 0


def test_frag_series_shape(defrag_result):
    assert defrag_result.frag_series
    for t, max_degree, groups, util in defrag_result.frag_series:
        assert t >= 0.0
        assert max_degree >= 0 and groups >= 0
        assert 0.0 <= util <= 1 + 1e-9


def test_defrag_restores_threshold(defrag_result):
    """After each batch the recorded max degree returns to the bound."""
    threshold = SMALL_TOPO.uplinks_per_tor
    final = defrag_result.frag_series[-1]
    assert final[1] <= threshold


def test_disabled_defrag_never_migrates():
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "perfect")
    assert not result.defrag_events
    assert all(r.migrations == 0 and r.downtime == 0.0
               for r in result.records)


def test_routing_only_run_never_checks(monkeypatch):
    """The simulator alone switches the controller: a routing-only run
    never asks it for a batch, and reports every outcome as zero."""
    checks = []
    real_check = controller.DefragController.check

    def spy(self, stages=None):
        checks.append(stages)
        return real_check(self, stages)

    monkeypatch.setattr(controller.DefragController, "check", spy)
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "perfect")
    assert not checks
    assert result.controller_outcomes == dict.fromkeys(
        ("applied", *SKIP_REASONS), 0)
    # the spy does see a defrag run's checks
    run_simulation(SMALL_TOPO, small_trace(seed=0, num_jobs=8),
                   "defrag-perfect", solver_time_limit=5.0)
    assert checks


def test_parse_algorithm_names():
    assert parse_algorithm("defrag-perfect") == (True, "perfect")
    assert parse_algorithm("ecmp") == (False, "ecmp")
    for name in ALGORITHMS:
        parse_algorithm(name)
    with pytest.raises(ValueError):
        parse_algorithm("defrag-bogus-scheme")


def test_spray_full_bisection_ideal_speed():
    """With uplink capacity matching aggregate NIC capacity and packet
    spraying, a lightly loaded cluster runs every job at line rate."""
    topo = ClusterTopology(4, 2, 8, 2, 400e9, 3200e9)
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES[:2], max_workers=16,
                      pp_choices=(1,), size_choices=(9, 12, 16))
    trace = generate_trace(topo, 0.5, seed=1, num_jobs=10, cfg=cfg)
    result = run_simulation(topo, trace, "spray")
    for r in result.records:
        assert r.slowdown == pytest.approx(1.0, rel=1e-3)


def test_ideal_duration_matches_isolated_run():
    """A single job simulated alone finishes in its ideal duration."""
    cfg = TraceConfig(templates=DEFAULT_TEMPLATES[:1], max_workers=16,
                      pp_choices=(1,), size_choices=(16,))
    trace = generate_trace(SMALL_TOPO, 0.1, seed=2, num_jobs=1, cfg=cfg)
    result = run_simulation(SMALL_TOPO, trace, "perfect")
    (record,) = result.records
    ideal = ideal_duration(trace.jobs[0], SMALL_TOPO)
    assert record.finished - record.started == pytest.approx(ideal, rel=1e-9)


def test_reroute_changes_solved_and_audited_links(monkeypatch):
    solved, resolved, rate_audits, audited = [], [], [], []
    real_solve = flowsim.maxmin_rates
    real_touched = flowsim.FlowNetwork._touched
    real_rates = flowsim.FlowNetwork.check_rates
    real_audit = flowsim.conservation_check

    def spy_solve(paths, capacities):
        solved.append((list(paths), capacities))
        return real_solve(paths, capacities)

    def spy_touched(net):
        # the drain is done: blank each fresh flow's rate, so a lone one
        # that ``_touched`` rates in place shows it was re-rated
        fresh = [flow for flow in net._fresh if flow.key in net.flows]
        for flow in fresh:
            flow.rate = math.nan
        components = real_touched(net)
        resolved.append([flow.path for c in components for flow in c]
                        + [flow.path for flow in fresh
                           if not math.isnan(flow.rate)])
        return components

    def spy_rates(net):
        first = len(solved)
        real_rates(net)
        # the rate audit makes one solve, of every live flow
        ((paths, _),) = solved[first:]
        rate_audits.append(paths)

    def spy_audit(paths, capacities, rates, rel_tol=1e-9):
        audited.append((list(paths), capacities))
        return real_audit(paths, capacities, rates, rel_tol)

    monkeypatch.setattr(flowsim, "maxmin_rates", spy_solve)
    monkeypatch.setattr(flowsim.FlowNetwork, "_touched", spy_touched)
    monkeypatch.setattr(flowsim.FlowNetwork, "check_rates", spy_rates)
    monkeypatch.setattr(flowsim, "conservation_check", spy_audit)

    class RerouteOnce(Simulation):
        """Moves the first live cross-rack flow to the other uplink."""

        rerouted = None
        recomputes = 0

        def _recompute_network(self):
            if self.rerouted is None:
                self.rerouted = self._reroute_one()
            super()._recompute_network()
            # the conservation and rate audits that just ran cover every
            # live flow's current path
            self.recomputes += 1
            live = [flow.path for flow in self.net.flows.values()]
            assert audited[-1][0] == [p for p in live if p]
            assert rate_audits[-1] == live

        def _reroute_one(self):
            for live in self.net.flows.values():
                flow = live.tag
                color = self.colors.get(flow.key)
                if flow.src.rack == flow.dst.rack or color not in (0, 1):
                    continue
                before = live.path
                self.colors[flow.key] = 1 - color
                self._reroute_live_flows()
                expected = tuple(path_between(self.topology, flow.src,
                                              flow.dst, 1 - color))
                return before, expected, live.path, len(resolved)
            return None

    sim = RerouteOnce(SMALL_TOPO, small_trace(seed=0), "ecmp",
                      check_invariants=True)
    sim.run()
    before, expected, after, call = sim.rerouted
    assert after == expected != before
    # the rerouted flow's links are dirty, so the first recompute after
    # the reroute re-solves its component on the new path
    assert after in resolved[call]
    assert len(audited) == len(rate_audits) == sim.recomputes
    for paths, caps in solved + audited:
        assert caps is SMALL_TOPO.link_capacities


def test_rate_audit_catches_path_written_around_set_path(monkeypatch):
    """A path change that bypasses ``set_path`` leaves its links clean,
    so the incremental solve misses it and the full-solve audit fires."""

    def write_path(net, key, path):
        net.flows[key].path = tuple(path)

    monkeypatch.setattr(flowsim.FlowNetwork, "set_path", write_path)
    with pytest.raises(AssertionError, match="full solve"):
        run_simulation(SMALL_TOPO, small_trace(seed=0), "perfect",
                       check_invariants=True)


@pytest.mark.parametrize("field, value, message", [
    ("remaining_bits", -1.0, "-1.0 bits left"),
    ("eta", -1.0, "ETA -1.0 before the clock"),
])
def test_progress_audit_runs_after_every_recompute(monkeypatch, field,
                                                   value, message):
    """A recompute that leaves a flow with negative bits or an ETA in the
    past trips the audit, which names the flow."""
    real_recompute = flowsim.FlowNetwork.recompute
    corrupted = []

    def recompute(net):
        moved = real_recompute(net)
        if net.time > 0 and net.flows and not corrupted:
            flow = next(iter(net.flows.values()))
            setattr(flow, field, value)
            corrupted.append(flow.key)
        return moved

    monkeypatch.setattr(flowsim.FlowNetwork, "recompute", recompute)
    with pytest.raises(AssertionError, match=message) as raised:
        run_simulation(SMALL_TOPO, small_trace(seed=0), "perfect",
                       check_invariants=True)
    assert f"flow {corrupted[0]!r}" in str(raised.value)


def test_same_time_completions_pop_in_flow_insertion_order():
    """"a" and "b" both come due at 12 s and only "a" is re-pushed, after
    "b"; they still pop in insertion order, as they did when every
    recompute re-pushed every flow."""
    sim = Simulation(SMALL_TOPO, small_trace(seed=0), "ecmp")
    sim.net = flowsim.FlowNetwork([8.0, 8.0])
    sim.net.add_flow("a", (0,), 8.0)  # 64 bits, sharing link 0 with "c"
    sim.net.add_flow("b", (1,), 12.0)  # 96 bits alone: due at 12 s
    sim.net.add_flow("c", (0,), 8.0)
    sim._recompute_network()  # "a" and "c" due at 16 s
    sim.net.settle_to(8.0)
    sim.net.remove_flow("c")
    sim._recompute_network()  # "a": 32 bits left at 8 bit/s, due at 12 s
    popped = [sim.queue.pop() for _ in range(len(sim.queue.heap))]
    assert [(t, payload[1].key) for t, _, payload in popped[:2]] == [
        (12.0, "a"), (12.0, "b")]


def test_second_completion_of_a_done_flow_is_dropped(monkeypatch):
    """Each live completion queues a second event for its flow at the
    same time. The removed flow's ETA is inf, so that event is dropped:
    no log line, no second ``remove_flow``, no change to the job's
    pending flows, and the run hashes as it does without it."""
    log = io.BytesIO()
    plain = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                           solver_time_limit=5.0, event_log=log)
    real_done = Simulation._on_flow_done
    real_remove = flowsim.FlowNetwork.remove_flow
    counts = Counter()
    doubled_log = io.BytesIO()

    def pending(sim):
        batch = sim.batch
        return ({job_id: run.pending_flows
                 for job_id, run in sim.runs.items()},
                batch and batch.pending_transfers)

    def on_flow_done(sim, flow):
        counts["events"] += 1
        if flow.eta != sim.now:
            before = (doubled_log.tell(), counts["removes"], pending(sim))
            real_done(sim, flow)
            assert (doubled_log.tell(), counts["removes"],
                    pending(sim)) == before
            return
        real_done(sim, flow)
        sim.queue.push(sim.now, RANK_FLOW, ("flow", flow), flow.serial)
        counts["requeued"] += 1

    def remove_flow(net, key):
        counts["removes"] += 1
        return real_remove(net, key)

    monkeypatch.setattr(Simulation, "_on_flow_done", on_flow_done)
    monkeypatch.setattr(flowsim.FlowNetwork, "remove_flow", remove_flow)
    doubled = run_simulation(SMALL_TOPO, small_trace(seed=0),
                             "defrag-perfect", solver_time_limit=5.0,
                             event_log=doubled_log)
    completions = sum(line.startswith(b"flow|")
                      for line in log.getvalue().splitlines())
    assert plain.defrag_events and completions > 0
    assert counts["requeued"] == counts["removes"] == completions
    assert counts["events"] >= 2 * completions
    assert doubled_log.getvalue() == log.getvalue()
    assert doubled.event_log_hash == plain.event_log_hash
    assert doubled.records == plain.records


def test_few_stale_flow_events_on_quick_config(monkeypatch):
    """Only completions whose time moved are pushed, so nearly every
    popped flow event still names its flow's ETA."""
    config = load_config(QUICK_CONFIG)
    topology = config.topology.build()
    trace = generate_trace(topology, config.trace.loads[0], seed=0,
                           num_jobs=config.trace.num_jobs,
                           cfg=config.trace.trace_config())
    counts = Counter()
    real_pop = flowsim.EventQueue.pop
    real_remove = flowsim.FlowNetwork.remove_flow

    def pop(queue):
        entry = real_pop(queue)
        counts["flow pops"] += entry[2][0] == "flow"
        return entry

    def remove_flow(net, key):
        counts["live"] += 1
        return real_remove(net, key)

    monkeypatch.setattr(flowsim.EventQueue, "pop", pop)
    monkeypatch.setattr(flowsim.FlowNetwork, "remove_flow", remove_flow)
    run_simulation(topology, trace, "defrag-perfect",
                   solver_time_limit=config.controller.solver_time_limit)
    stale = counts["flow pops"] - counts["live"]
    assert counts["live"] > 0
    assert stale <= 0.1 * counts["flow pops"]


def test_tracer_counters_see_every_event_and_completion(monkeypatch):
    """The benchmark's tracer counts events at ``EventQueue.push`` and
    ``pop`` and completions at ``FlowNetwork.remove_flow``: every event
    the run handles and every flow it completes must pass through them."""
    config = load_config(QUICK_CONFIG)
    topology = config.topology.build()
    trace = generate_trace(topology, config.trace.loads[0], seed=0,
                           num_jobs=config.trace.num_jobs,
                           cfg=config.trace.trace_config())
    counts = Counter()
    real_push = flowsim.EventQueue.push
    real_pop = flowsim.EventQueue.pop
    real_remove = flowsim.FlowNetwork.remove_flow

    def push(queue, *args, **kwargs):
        counts["pushes"] += 1
        return real_push(queue, *args, **kwargs)

    def pop(queue):
        entry = real_pop(queue)
        counts["pops"] += 1
        counts["flow pops"] += entry[2][0] == "flow"
        return entry

    def remove_flow(net, key):
        counts["removes"] += 1
        return real_remove(net, key)

    monkeypatch.setattr(flowsim.EventQueue, "push", push)
    monkeypatch.setattr(flowsim.EventQueue, "pop", pop)
    monkeypatch.setattr(flowsim.FlowNetwork, "remove_flow", remove_flow)
    log = io.BytesIO()
    result = run_simulation(
        topology, trace, "defrag-perfect",
        solver_time_limit=config.controller.solver_time_limit,
        event_log=log)
    completions = sum(line.startswith(b"flow|")
                      for line in log.getvalue().splitlines())
    assert result.defrag_events and completions > 0
    assert counts["pushes"] == counts["pops"] > 0
    assert counts["removes"] == completions
    assert counts["flow pops"] >= completions


def test_plan_cache_audit_passes_across_committed_batches():
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                            solver_time_limit=5.0, check_invariants=True)
    assert result.defrag_events
    assert sum(r.migrations for r in result.records) > 0


def test_plan_cache_audit_catches_stale_plan(monkeypatch):
    """Keeping the pre-migration plans of moved jobs must trip the audit."""
    real_commit = Simulation._commit_batch

    def commit_keeping_plans(self):
        stale = {job_id: run.plan for job_id, run in self.runs.items()}
        real_commit(self)
        for job_id, plan in stale.items():
            self.runs[job_id].plan = plan

    monkeypatch.setattr(Simulation, "_commit_batch", commit_keeping_plans)
    with pytest.raises(AssertionError, match="stale iteration plan"):
        run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                       solver_time_limit=5.0, check_invariants=True)


def test_path_memo_audit_catches_stale_path(monkeypatch):
    """A memoised flow path that no longer matches its colour's path must
    trip the audit at the job's next launch."""
    real_launch = Simulation._launch_iteration_flows
    corrupted = []

    def launch_corrupting_one_path(self, run):
        real_launch(self, run)
        if corrupted:
            return
        for memo in run.plan.paths:
            for color, path in memo.items():
                if len(path) > 1:
                    memo[color] = path[::-1]
                    corrupted.append(run.job.job_id)
                    return

    monkeypatch.setattr(Simulation, "_launch_iteration_flows",
                        launch_corrupting_one_path)
    with pytest.raises(AssertionError, match="stale flow path"):
        run_simulation(SMALL_TOPO, small_trace(seed=0), "perfect",
                       check_invariants=True)
    assert len(corrupted) == 1


def count_plan_builds(monkeypatch):
    builds = Counter()
    real_plan = simulate.plan_iteration_flows

    def spy(job, locate):
        builds[job.job_id] += 1
        return real_plan(job, locate)

    monkeypatch.setattr(simulate, "plan_iteration_flows", spy)
    return builds


def test_sglb_builds_each_plan_once(monkeypatch):
    builds = count_plan_builds(monkeypatch)
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "sglb")
    assert builds == Counter(r.job_id for r in result.records)


def test_defrag_rebuilds_plans_only_after_moves(monkeypatch):
    builds = count_plan_builds(monkeypatch)
    moved = Counter()
    real_commit = Simulation._commit_batch

    def commit(self):
        moved.update(self.batch.affected_jobs)
        real_commit(self)

    monkeypatch.setattr(Simulation, "_commit_batch", commit)
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                            solver_time_limit=5.0)
    assert moved
    for r in result.records:
        assert 1 <= builds[r.job_id] <= 1 + moved[r.job_id]
    assert set(builds) == {r.job_id for r in result.records}


def test_stage_rows_built_once_per_placement_change(monkeypatch):
    """The fragmentation record and the controller share one build of
    the stage rows, whose one ``ring_walk`` sums the ring loads; the only
    other walk in the run is each controller solve's walk of its
    instance's initial rows."""
    builds, instances, events = [], [], []
    real_rows = fragmentation.stage_rows
    real_build = controller.build_instance
    real_walk = defrag.ring_walk
    real_solve = controller.solve

    def rows(placement):
        builds.append(placement)
        events.append(("build", None))
        return real_rows(placement)

    def walk(jobs, rows, base):
        events.append(("walk", rows))
        return real_walk(jobs, rows, base)

    def build(placement, threshold, stages=None):
        instance = real_build(placement, threshold, stages)
        instances.append(instance)
        return instance

    def solve(instance, **kwargs):
        events.append(("solve", instance.initial))
        return real_solve(instance, **kwargs)

    for module in (fragmentation, controller, simulate):
        monkeypatch.setattr(module, "stage_rows", rows)
    monkeypatch.setattr(controller, "build_instance", build)
    monkeypatch.setattr(controller, "solve", solve)
    for module in (fragmentation, defrag):
        monkeypatch.setattr(module, "ring_walk", walk)
    result = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                            solver_time_limit=5.0)
    assert result.defrag_events and any(instances)
    # one record per timestamp whose placement changed
    times = [t for t, *_ in result.frag_series]
    assert len(set(times)) == len(times) == len(builds)
    # each build walks its rows once, and each solve its initial rows
    solves = sum(kind == "solve" for kind, _ in events)
    assert solves >= len(result.defrag_events)
    assert len(events) == 2 * (len(builds) + solves)
    for (kind, initial), (next_kind, rows) in zip(events[::2], events[1::2]):
        assert kind in ("build", "solve") and next_kind == "walk"
        if kind == "solve":
            assert rows is initial


def test_sglb_fast_path_audits_pass_and_skip_rebalances(monkeypatch):
    """An sglb run skips rebalances that would move nothing, the skip
    audit holds on every one, and the audited run is the plain one."""
    calls = Counter()
    real_rebalance = SglbRouting.rebalance
    real_helper = Simulation._rebalance

    def rebalance(self, *args):
        calls["rebalance"] += 1
        return real_rebalance(self, *args)

    def helper(self):
        calls["helper"] += 1
        real_helper(self)

    monkeypatch.setattr(SglbRouting, "rebalance", rebalance)
    monkeypatch.setattr(Simulation, "_rebalance", helper)
    plain = run_simulation(SMALL_TOPO, small_trace(seed=0), "sglb")
    assert 0 < calls["rebalance"] < calls["helper"]
    audited = run_simulation(SMALL_TOPO, small_trace(seed=0), "sglb",
                             check_invariants=True)
    assert audited.event_log_hash == plain.event_log_hash
    assert audited.records == plain.records


def test_rebalance_skip_audit_catches_missed_reset(monkeypatch):
    """Skipping the rebalance after a job start and new colors must trip
    the audit."""
    def keeping_flag(method):
        def call(self, *args):
            balanced = self._balanced
            method(self, *args)
            self._balanced = balanced
        return call

    for name in ("_reassign_routing", "_start_job"):
        monkeypatch.setattr(Simulation, name,
                            keeping_flag(getattr(Simulation, name)))
    with pytest.raises(AssertionError, match="skipped rebalance"):
        run_simulation(SMALL_TOPO, small_trace(seed=0), "sglb",
                       check_invariants=True)


def test_reroute_of_a_flow_without_a_colour_raises_keyerror():
    """Every live cross-rack flow is a current demand, and every strategy
    colours every demand: a flow with no colour is a fault, raised rather
    than left on its old uplink."""
    sim = Simulation(SMALL_TOPO, small_trace(seed=0), "perfect")
    src, dst = SMALL_TOPO.gpu(0, 0, 0), SMALL_TOPO.gpu(1, 0, 0)
    flow = FlowDemand((7, "dp", 0), 7, src, dst, 1e6)
    sim.net.add_flow((flow.key, 0), path_between(SMALL_TOPO, src, dst, 0),
                     flow.size_bytes, flow)
    with pytest.raises(KeyError) as raised:
        sim._reroute_live_flows()
    assert raised.value.args == (flow.key,)


def test_bookkeeping_audit_passes_on_defrag_run(monkeypatch):
    """The slot and run audit holds on a run with migration batches, at
    the end of every timestamp, and changes nothing."""
    plain = run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                           solver_time_limit=5.0)
    audits = Counter()
    real_check = Simulation._check_bookkeeping

    def counting_check(self):
        audits[self.now] += 1
        real_check(self)

    monkeypatch.setattr(Simulation, "_check_bookkeeping", counting_check)
    audited = run_simulation(SMALL_TOPO, small_trace(seed=0),
                             "defrag-perfect", solver_time_limit=5.0,
                             check_invariants=True)
    assert audited.defrag_events
    assert set(audits.values()) == {1}
    assert max(audits) == audited.makespan
    assert audited.event_log_hash == plain.event_log_hash
    assert audited.records == plain.records


def _placed_workers(placement):
    """The placed workers, in the placement's storage order."""
    return [(job_id, index)
            for job_id, gpus in placement._workers.items()
            for index, gpu in enumerate(gpus) if gpu is not None]


def _flip_mask_bit(sim):
    placement = sim.scheduler.placement
    gpu = placement.locate(_placed_workers(placement)[0])
    placement._taken[gpu.rack][gpu.host] ^= 1 << gpu.slot


def _share_a_slot(sim):
    placement = sim.scheduler.placement
    (first_job, first), (second_job, second) = \
        _placed_workers(placement)[:2]
    workers = placement._workers
    workers[second_job][second] = workers[first_job][first]


def _free_a_worker(sim):
    placement = sim.scheduler.placement
    placement.unassign(_placed_workers(placement)[0])


def _stale_kept_row(sim):
    # a kept row that a move forgot to drop: one unit off by a rack
    kept = sim.scheduler.placement._kept_stages
    if not kept:
        return
    job_id = next(iter(kept))
    solver_jobs, rows = kept[job_id]
    row = list(rows[0])
    rack = next(t for t, v in enumerate(row) if v)
    row[rack] -= 1
    row[(rack + 1) % len(row)] += 1
    kept[job_id] = (solver_jobs, (tuple(row),) + rows[1:])


def _forget_a_job(sim):
    # the job leaves the placement behind the simulator's back
    placement = sim.scheduler.placement
    placement.remove_job(next(iter(placement.jobs)))


def _leave_a_worker_list(sim):
    # a worker list kept for a job that is not placed
    sim.scheduler.placement._workers[-1] = [None]


def _grow_a_worker_list(sim):
    # a placed job's list one entry past its workers
    workers = sim.scheduler.placement._workers
    workers[next(iter(workers))].append(None)


def _queue_a_running_job(sim):
    sim.scheduler.queue.append(next(iter(sim.runs.values())).job)


def _queue_a_job_that_fits(sim):
    job = make_job(job_id=-1, workers=1, dp=1)
    if sim.batch is None and plan_racks(sim.scheduler.placement, job):
        sim.scheduler.queue.appendleft(job)


@pytest.mark.parametrize("corrupt, message", [
    (_flip_mask_bit, "holds no taken slot bit"),
    (_share_a_slot, "two workers share slot"),
    (_free_a_worker, "unplaced"),
    (_stale_kept_row, "stale kept stage row"),
    (_forget_a_job, "are not the running jobs"),
    (_leave_a_worker_list, "worker lists are kept for jobs"),
    (_grow_a_worker_list, "worker entries for"),
    (_queue_a_running_job, "queued jobs .* are placed"),
    (_queue_a_job_that_fits, "queued job -1 fits but is not admitted"),
])
def test_bookkeeping_audit_catches_corruption(monkeypatch, corrupt, message):
    """Corrupting the live placement mid-run, once two jobs run, must
    trip the audit that ends the timestamp."""
    real_check = Simulation._check_bookkeeping

    def corrupt_then_check(self):
        if len(self.runs) >= 2:
            corrupt(self)
        real_check(self)

    monkeypatch.setattr(Simulation, "_check_bookkeeping", corrupt_then_check)
    with pytest.raises(AssertionError, match=message):
        run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                       solver_time_limit=5.0, check_invariants=True)


def test_waited_on_job_that_finishes_in_the_barrier_leaves_the_batch():
    """A job the batch waits on whose in-flight iteration is its last
    finishes instead of pausing: the batch drops its moves, its slots are
    freed, and the transfers start once the batch waits on no job."""
    short = make_job(job_id=0, workers=2, dp=2, iterations=1)
    long = make_job(job_id=1, workers=2, dp=2, iterations=3)
    long = dataclasses.replace(long, template=dataclasses.replace(
        long.template, compute_seconds=3.0))
    move_short = WorkerMove((0, 0), 1, 0)
    move_long = WorkerMove((1, 0), 1, 0)
    decision = DefragDecision(
        moves=[move_short, move_long],
        stats=SolverStats(2, 0.0, 0, True))
    seen = []

    def waiting(sim):
        """The moved jobs the batch still waits on."""
        return {job_id for job_id in sim.batch.affected_jobs
                if sim.runs[job_id].phase is not JobPhase.BARRIERED}

    class Probe(Simulation):
        def _on_job_done(self, run):
            super()._on_job_done(run)
            batch, placement = self.batch, self.scheduler.placement
            if batch is not None:
                seen.append(("done", self.now, run.job.job_id,
                             batch.transfers is None, waiting(self),
                             list(batch.moves),
                             run.job.job_id in placement.jobs,
                             placement.free_slots(0, 0)))

        def _start_transfers_once_paused(self):
            at_barrier = self.batch.transfers is None
            super()._start_transfers_once_paused()
            if at_barrier and self.batch.transfers is not None:
                seen.append(("transfers", self.now, waiting(self),
                             list(self.batch.moves)))

    sim = Probe(SMALL_TOPO, Trace([short, long], 0.9, 0), "defrag-perfect",
                check_invariants=True)
    decisions = iter([decision])
    sim.controller.check = lambda stages: next(decisions, None)
    result = sim.run()
    # both jobs share host (0, 0); the short one ends at 1 s, in the
    # barrier, and the long one pauses at 3 s
    assert seen == [
        ("done", 1.0, 0, True, {1}, [move_long], False, 6),
        ("transfers", 3.0, set(), [move_long]),
    ]
    migrations = {r.job_id: r.migrations for r in result.records}
    assert migrations == {0: 0, 1: 1}
    (event,) = result.defrag_events
    assert event.time == 0.0 and event.duration > 3.0 + REINIT_SECONDS


def test_batch_whose_moved_jobs_all_leave_in_the_barrier_commits_empty():
    """Both moved jobs are in their last iteration when the batch is
    planned: each leaves instead of pausing, and the batch, with no move
    left, commits without a checkpoint transfer and re-initializes from
    the later departure."""
    first = make_job(job_id=0, workers=2, dp=2, iterations=1)
    last = make_job(job_id=1, workers=2, dp=2, iterations=1)
    last = dataclasses.replace(last, template=dataclasses.replace(
        last.template, compute_seconds=3.0))
    decision = DefragDecision(
        moves=[WorkerMove((0, 0), 1, 0), WorkerMove((1, 0), 1, 0)],
        stats=SolverStats(2, 0.0, 0, True))
    log = io.BytesIO()
    sim = Simulation(SMALL_TOPO, Trace([first, last], 0.9, 0),
                     "defrag-perfect", check_invariants=True, event_log=log)
    decisions = iter([decision])
    sim.controller.check = lambda stages: next(decisions, None)
    result = sim.run()
    lines = log.getvalue().decode().splitlines()
    # the jobs share host (0, 0), so they finish at 1 s and 3 s
    assert [line for line in lines if not line.startswith("start")] == [
        "arrival|0.0|0", "arrival|0.0|1", "defrag|0.0|2", "finish|1.0|0",
        "finish|3.0|1", "commit|3.0|0",
        f"reinit-done|{3.0 + REINIT_SECONDS}|0"]
    assert {r.job_id: r.migrations for r in result.records} == {0: 0, 1: 0}
    (event,) = result.defrag_events
    assert (event.time, event.duration) == (0.0, 3.0 + REINIT_SECONDS)
