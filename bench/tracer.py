"""Layer tracing for the benchmark's traced run.

The tracer times each layer from outside: ``install`` replaces a layer's
public functions with wrappers, at the name its caller looks up (for
example ``defragsim.simulate.plan_iteration_flows``, which the event
loop calls, rather than ``defragsim.jobmodel.plan_iteration_flows``), and
restores the originals on exit.

Two kinds of wrapper:

* a *span* records (name, start, end, parent) in memory and adds its
  duration to the function's total and self time;
* a *counter* adds count and time only, with no span record. The event
  queue's push and pop, about half a million calls on a figure run, are
  counters so the trace stays small and cheap.

A layer's self time is its duration minus the time of the wrapped calls
made inside it. Bookkeeping done by the tracer itself (such as counting
the distinct links of a max-min call) is excluded from every self time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

from defragsim import controller, flowsim, routing, scheduler, simulate, \
    workload, defrag

clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int]] = []
        # one [span index, child seconds] frame per open span
        self._stack: list[list] = []
        self.top_level = 0.0  # seconds inside outermost wrapped calls
        self.excluded_top = 0.0  # tracer bookkeeping outside any span

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][1] += seconds
        else:
            self.top_level += seconds

    @contextlib.contextmanager
    def excluded(self):
        """Time spent here counts toward no layer."""
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            if self._stack:
                self._stack[-1][1] += dt
            else:
                self.excluded_top += dt

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` as a span. ``before(args)`` runs before the call and
        its value is passed as ``after(result, args, token)``; both run
        outside the span's own time."""
        stats = self.stats[name]
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                with self.excluded():
                    token = before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                self._charge_parent(duration)
                spans[index] = (name, t0, t1, parent)
            if after is not None:
                with self.excluded():
                    after(result, args, token)
            return result

        return wrapper

    def counter(self, name: str, fn, after=None):
        """Wrap ``fn`` as a counter: calls and time, no span."""
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            duration = clock() - t0
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration
            self._charge_parent(duration)
            if after is not None:
                after(result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent span index."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _patches(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced boundary."""
    count = tr.counts

    def maxmin_before(args):
        paths = args[0]
        count["maxmin.flows"] += len(paths)
        count["maxmin.links"] += len({link for path in paths
                                      for link in path})

    def pop_after(entry):
        if entry[2][0] == "flow":
            count["queue.flow_pops"] += 1

    def edge_color_before(args):
        count["edge_color.edges"] += len(args[0])

    def rebalance_after(moved, args, token):
        count["rebalance.moved"] += bool(moved)

    def check_before(args):
        return args[0].skipped_infeasible

    def check_after(decision, args, skipped_before):
        count["check.decisions"] += decision is not None
        count["check.skipped"] += args[0].skipped_infeasible - skipped_before

    def solve_after(plan, args, token):
        count["solve.nodes"] += plan.stats.nodes_explored
        count["solve.optimal"] += plan.stats.optimal

    FlowNetwork = flowsim.FlowNetwork
    EventQueue = flowsim.EventQueue
    patches = [
        (flowsim, "maxmin_rates", tr.span(
            "flowsim.maxmin_rates", flowsim.maxmin_rates,
            before=maxmin_before)),
        (FlowNetwork, "recompute", tr.span(
            "flowsim.recompute", FlowNetwork.recompute)),
        (FlowNetwork, "settle_to", tr.span(
            "flowsim.settle_to", FlowNetwork.settle_to)),
        (FlowNetwork, "remove_flow", tr.counter(
            "flowsim.remove_flow", FlowNetwork.remove_flow)),
        (EventQueue, "push", tr.counter(
            "flowsim.queue.push", EventQueue.push)),
        (EventQueue, "pop", tr.counter(
            "flowsim.queue.pop", EventQueue.pop, after=pop_after)),
        (simulate, "plan_iteration_flows", tr.span(
            "jobmodel.plan_iteration_flows", simulate.plan_iteration_flows)),
        (routing, "edge_color", tr.span(
            "routing.edge_color", routing.edge_color,
            before=edge_color_before)),
        (routing.SglbRouting, "rebalance", tr.span(
            "routing.rebalance", routing.SglbRouting.rebalance,
            after=rebalance_after)),
        (controller.DefragController, "check", tr.span(
            "controller.check", controller.DefragController.check,
            before=check_before, after=check_after)),
        (controller, "resolve_plan", tr.span(
            "controller.resolve_plan", controller.resolve_plan)),
        (controller, "build_instance", tr.span(
            "controller.build_instance", controller.build_instance)),
        (scheduler.Scheduler, "place_job", tr.span(
            "scheduler.place_job", scheduler.Scheduler.place_job)),
        (scheduler.Scheduler, "release_job", tr.span(
            "scheduler.release_job", scheduler.Scheduler.release_job)),
        (simulate, "fragmentation_degree", tr.span(
            "fragmentation.fragmentation_degree",
            simulate.fragmentation_degree)),
        (workload, "generate_trace", tr.span(
            "workload.generate_trace", workload.generate_trace)),
    ]
    # the controller calls the solver by its own name; the solver
    # workload calls it through the defrag module
    for owner in (controller, defrag):
        patches.append((owner, "solve", tr.span(
            "defrag.solve", owner.solve, after=solve_after)))
    for strategy in routing.STRATEGIES.values():
        patches.append((strategy, "assign", tr.span(
            "routing.assign", strategy.assign)))
    return patches


@contextlib.contextmanager
def installed(tr: Tracer):
    """Route every traced boundary through ``tr`` for the duration."""
    patches = _patches(tr)
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, body_s: float, setup: Tracer
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), of one traced pass whose
    body took ``body_s`` host seconds; ``setup`` traced its set-up."""
    s = tr.stats
    c = tr.counts
    maxmin = s["flowsim.maxmin_rates"]
    push, pop = s["flowsim.queue.push"], s["flowsim.queue.pop"]
    removes = s["flowsim.remove_flow"].calls
    flow_pops = c["queue.flow_pops"]
    edge = s["routing.edge_color"]
    rebalance = s["routing.rebalance"]
    out = {
        "flowsim.maxmin_rates.calls": (maxmin.calls, "count"),
        "flowsim.maxmin_rates.s": (maxmin.total, "s"),
        "flowsim.maxmin_rates.flows_mean": (
            _ratio(c["maxmin.flows"], maxmin.calls), "count"),
        "flowsim.maxmin_rates.links_mean": (
            _ratio(c["maxmin.links"], maxmin.calls), "count"),
        "flowsim.recompute.calls": (s["flowsim.recompute"].calls, "count"),
        "flowsim.recompute.self_s": (s["flowsim.recompute"].self_time, "s"),
        "flowsim.settle_to.calls": (s["flowsim.settle_to"].calls, "count"),
        "flowsim.settle_to.s": (s["flowsim.settle_to"].total, "s"),
        "flowsim.queue.pushes": (push.calls, "count"),
        "flowsim.queue.pops": (pop.calls, "count"),
        "flowsim.queue.s": (push.total + pop.total, "s"),
        "flowsim.flow_events.stale": (flow_pops - removes, "count"),
        "flowsim.flow_events.useful_ratio": (
            _ratio(removes, flow_pops), "ratio"),
        "jobmodel.plan_iteration_flows.calls": (
            s["jobmodel.plan_iteration_flows"].calls, "count"),
        "jobmodel.plan_iteration_flows.s": (
            s["jobmodel.plan_iteration_flows"].total, "s"),
        "routing.assign.calls": (s["routing.assign"].calls, "count"),
        "routing.assign.s": (s["routing.assign"].total, "s"),
        "routing.edge_color.calls": (edge.calls, "count"),
        "routing.edge_color.s": (edge.total, "s"),
        "routing.edge_color.edges_mean": (
            _ratio(c["edge_color.edges"], edge.calls), "count"),
        "routing.rebalance.calls": (rebalance.calls, "count"),
        "routing.rebalance.s": (rebalance.total, "s"),
        "routing.rebalance.moved": (c["rebalance.moved"], "count"),
        "routing.rebalance.useful_ratio": (
            _ratio(c["rebalance.moved"], rebalance.calls), "ratio"),
        "controller.check.calls": (s["controller.check"].calls, "count"),
        "controller.check.self_s": (s["controller.check"].self_time, "s"),
        "controller.check.decisions": (c["check.decisions"], "count"),
        "controller.check.skipped": (c["check.skipped"], "count"),
        "controller.resolve_plan.calls": (
            s["controller.resolve_plan"].calls, "count"),
        "controller.build_instance.calls": (
            s["controller.build_instance"].calls, "count"),
        "controller.build_instance.s": (
            s["controller.build_instance"].total, "s"),
        "defrag.solve.calls": (s["defrag.solve"].calls, "count"),
        "defrag.solve.s": (s["defrag.solve"].total, "s"),
        "defrag.solve.nodes": (c["solve.nodes"], "count"),
        "defrag.solve.optimal": (c["solve.optimal"], "count"),
        "scheduler.place_job.calls": (
            s["scheduler.place_job"].calls, "count"),
        "scheduler.place_job.s": (s["scheduler.place_job"].total, "s"),
        "scheduler.release_job.calls": (
            s["scheduler.release_job"].calls, "count"),
        "scheduler.release_job.s": (s["scheduler.release_job"].total, "s"),
        "fragmentation.fragmentation_degree.calls": (
            s["fragmentation.fragmentation_degree"].calls, "count"),
        "fragmentation.fragmentation_degree.s": (
            s["fragmentation.fragmentation_degree"].total, "s"),
        "workload.generate_trace.s": (
            setup.stats["workload.generate_trace"].total, "s"),
        "simulate.self_s": (body_s - tr.top_level - tr.excluded_top, "s"),
    }
    return out
