import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from defragsim import flowsim
from defragsim.flowsim import (
    EventQueue, FlowNetwork, conservation_check, maxmin_rates,
)


def linear_scan_maxmin(paths, capacities):
    """Progressive filling with a linear bottleneck scan.

    The implementation ``maxmin_rates`` had before its heap: each round
    scans every link in first-appearance order and takes the strictly
    smallest share. Kept as the reference the heap must match exactly.
    """
    rates = [math.inf] * len(paths)
    link_order = []
    flows_on = {}
    for i, path in enumerate(paths):
        for link in path:
            if link not in flows_on:
                flows_on[link] = set()
                link_order.append(link)
            flows_on[link].add(i)
    residual = {link: float(capacities[link]) for link in link_order}
    unfrozen = {i for i, path in enumerate(paths) if path}
    while unfrozen:
        best_link = None
        best_share = math.inf
        for link in link_order:
            active = flows_on[link]
            if not active:
                continue
            share = residual[link] / len(active)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for i in list(flows_on[best_link]):
            rates[i] = best_share
            unfrozen.discard(i)
            for link in paths[i]:
                flows_on[link].discard(i)
                residual[link] -= best_share
        residual[best_link] = 0.0
    return rates


def waterfill_oracle(paths, capacities):
    """Exact max-min rates via simultaneous level raising (Fractions).

    All unfrozen flows share one common rate level; repeatedly find the
    level at which the next link saturates and freeze its flows there.
    Structurally different from progressive filling and exact, so it
    serves as an independent oracle.
    """
    rates = [None] * len(paths)
    unfrozen = set()
    for i, path in enumerate(paths):
        if path:
            unfrozen.add(i)
        else:
            rates[i] = math.inf
    frozen_load = {link: Fraction(0) for p in paths for link in p}
    while unfrozen:
        best = None
        for link, cap in capacities.items():
            active = [i for i in unfrozen if link in paths[i]]
            if not active:
                continue
            level = (Fraction(cap) - frozen_load[link]) / len(active)
            if best is None or level < best:
                best = level
        saturated = {
            link for link, cap in capacities.items()
            if any(i in unfrozen and link in paths[i] for i in range(len(paths)))
            and (Fraction(cap) - frozen_load[link])
            == best * sum(1 for i in unfrozen if link in paths[i])}
        newly = {i for i in unfrozen if any(l in saturated for l in paths[i])}
        for i in newly:
            rates[i] = best
            for link in paths[i]:
                frozen_load[link] += best
        unfrozen -= newly
    return rates


def assert_maxmin_property(paths, capacities, rates, tol=1e-9):
    # every constrained flow has a saturated bottleneck link on which it
    # receives the maximum rate -- the defining max-min characterization
    loads = {}
    on_link = {}
    for i, path in enumerate(paths):
        for link in path:
            loads[link] = loads.get(link, 0.0) + rates[i]
            on_link.setdefault(link, []).append(i)
    for i, path in enumerate(paths):
        if not path:
            assert rates[i] == math.inf
            continue
        has_bottleneck = False
        for link in path:
            saturated = loads[link] >= capacities[link] * (1 - tol) - tol
            is_max = all(rates[i] >= rates[j] * (1 - tol)
                         for j in on_link[link])
            if saturated and is_max:
                has_bottleneck = True
        assert has_bottleneck, f"flow {i} has no bottleneck"


def test_two_flows_one_link_split_evenly():
    paths = [("l",), ("l",)]
    caps = {"l": 400e9}
    assert maxmin_rates(paths, caps) == [200e9, 200e9]


def test_classic_three_flow_waterfill():
    # f0 uses only A (cap 300); f1 crosses A and B (cap 100); f2 only B.
    # B splits 50/50, leaving 250 on A for f0.
    paths = [("A",), ("A", "B"), ("B",)]
    caps = {"A": 300.0, "B": 100.0}
    rates = maxmin_rates(paths, caps)
    assert rates == pytest.approx([250.0, 50.0, 50.0])


def test_empty_path_unconstrained():
    rates = maxmin_rates([(), ("l",)], {"l": 10.0})
    assert rates[0] == math.inf
    assert rates[1] == 10.0


def test_asymmetric_bottlenecks():
    # f0 is capped at 100 by its private link; f1 then takes the rest of
    # the shared 300 link.
    paths = [("narrow", "shared"), ("shared",)]
    caps = {"narrow": 100.0, "shared": 300.0}
    rates = maxmin_rates(paths, caps)
    assert rates == pytest.approx([100.0, 200.0])


def test_matches_oracle_random_instances():
    rng = random.Random(42)
    for _ in range(200):
        num_links = rng.randint(1, 8)
        links = [f"l{i}" for i in range(num_links)]
        caps = {l: float(rng.randint(1, 40)) for l in links}
        num_flows = rng.randint(1, 12)
        paths = []
        for _ in range(num_flows):
            k = rng.randint(0, min(4, num_links))
            paths.append(tuple(rng.sample(links, k)))
        rates = maxmin_rates(paths, caps)
        oracle = waterfill_oracle(paths, caps)
        for got, want in zip(rates, oracle):
            if want == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(float(want), rel=1e-9)
        constrained = [(p, r) for p, r in zip(paths, rates) if p]
        conservation_check([p for p, _ in constrained], caps,
                           [r for _, r in constrained])
        assert_maxmin_property(paths, caps, rates)


@st.composite
def tied_instances(draw):
    """Int links with small integer capacities, so equal shares (ties
    for the bottleneck) are common."""
    num_links = draw(st.integers(1, 8))
    caps = [float(draw(st.integers(1, 6))) for _ in range(num_links)]
    links = st.lists(st.integers(0, num_links - 1), max_size=4, unique=True)
    paths = [tuple(p) for p in draw(st.lists(links, min_size=1,
                                             max_size=14))]
    return paths, caps


@settings(max_examples=400, deadline=None)
@given(tied_instances())
def test_heap_matches_linear_scan_exactly(instance):
    paths, caps = instance
    rates = maxmin_rates(paths, caps)
    assert rates == linear_scan_maxmin(paths, caps)
    oracle = waterfill_oracle(paths, dict(enumerate(caps)))
    for got, want in zip(rates, oracle):
        if want == math.inf:
            assert got == math.inf
        else:
            assert got == pytest.approx(float(want), rel=1e-9)


def test_conservation_check_catches_overload():
    with pytest.raises(AssertionError):
        conservation_check([("l",), ("l",)], {"l": 10.0}, [6.0, 6.0])


def test_event_queue_orders_by_time_rank_seq():
    q = EventQueue()
    q.push(2.0, 0, "late")
    q.push(1.0, 5, "low-rank-last")
    q.push(1.0, 1, "first")
    q.push(1.0, 1, "second")
    order = [q.pop()[2] for _ in range(4)]
    assert order == ["first", "second", "low-rank-last", "late"]
    assert not q.heap


def test_event_queue_tie_orders_before_insertion():
    q = EventQueue()
    q.push(1.0, 0, "serial 2", 2)
    q.push(1.0, 0, "serial 1", 1)
    q.push(1.0, 0, "serial 1 again", 1)
    assert [q.pop()[2] for _ in range(3)] == [
        "serial 1", "serial 1 again", "serial 2"]


def test_flow_network_single_flow_completion():
    net = FlowNetwork([100.0])  # link 0: 100 bits/s
    net.add_flow("f", (0,), size_bytes=100.0)  # 800 bits
    (flow,) = net.recompute()
    assert flow.key == "f" and flow.serial == 0
    assert flow.eta == pytest.approx(8.0)
    assert net.flows["f"] is flow
    # nothing changed: the queued completion stays live, none is re-issued
    assert net.recompute() == []
    net.settle_to(flow.eta)
    # bits drain at the next recompute, not at the settle
    net.recompute()
    assert net.flows["f"].remaining_bits == pytest.approx(0.0)


def test_flow_network_generation_invalidates_old_etas():
    net = FlowNetwork([100.0])
    net.add_flow("a", (0,), size_bytes=100.0)
    (first,) = net.recompute()
    first_eta = first.eta
    assert first_eta == pytest.approx(8.0)
    net.add_flow("b", (0,), size_bytes=100.0)
    second = net.recompute()
    # with the link now shared, "a" is re-issued at 16s; the 8s event no
    # longer names its ETA, so it is dead when popped
    etas = {flow.key: flow.eta for flow in second}
    assert etas == {"a": pytest.approx(16.0), "b": pytest.approx(16.0)}
    assert net.flows["a"].eta == etas["a"] != first_eta


def test_flow_network_settle_partial_then_speedup():
    net = FlowNetwork([100.0])
    net.add_flow("a", (0,), size_bytes=100.0)
    net.add_flow("b", (0,), size_bytes=100.0)
    net.recompute()
    net.settle_to(8.0)  # each drained 400 of 800 bits
    net.remove_flow("b")
    completions = net.recompute()
    assert completions[0].eta == pytest.approx(12.0)  # 400 bits at full rate


def test_removed_flow_names_no_completion_time():
    """``remove_flow`` sets the removed flow's ETA to inf, so no queued
    completion event still names it; the flows left keep theirs."""
    net = FlowNetwork([100.0])
    net.add_flow("a", (0,), size_bytes=100.0)
    net.add_flow("b", (0,), size_bytes=100.0)
    net.recompute()
    eta = net.flows["b"].eta
    removed = net.remove_flow("a")
    assert removed.key == "a" and removed.eta == math.inf
    assert net.flows["b"].eta == eta


def _network_state(net):
    """Everything a refused call must leave as it was."""
    return ([(key, f.path, f.remaining_bits, f.serial, f.rate, f.eta)
             for key, f in net.flows.items()],
            [sorted(f.key for f in flows) for flows in net._on_link],
            sorted(net._dirty), [f.key for f in net._fresh],
            list(net._steps), net._serial, net.time)


def _shared_network():
    """Three links; "a" on 0 and 1, "b" on 1, "c" removed from 2, and a
    clock step pending."""
    net = FlowNetwork([1.0, 2.0, 3.0])
    net.add_flow("a", (0, 1), 1.0)
    net.add_flow("b", (1,), 2.0)
    net.add_flow("c", (2,), 1.0)
    net.recompute()
    net.settle_to(0.5)
    net.remove_flow("c")
    return net


# (1.0,), (True,) and (0, 1.0) equal paths the shared network has already
# taken; (0.0,) equals none
BAD_PATHS = [(), [], (0, 0), (1, 0, 1), (3,), (0, 3), (-1,), (1, -3),
             ("x",), (0.0,), (1.0,), (True,), (0, 1.0)]


@pytest.mark.parametrize("path", BAD_PATHS)
def test_add_flow_refuses_a_bad_path_and_changes_nothing(path):
    net = _shared_network()
    before = _network_state(net)
    with pytest.raises(ValueError, match="bad path"):
        net.add_flow("d", path, 1.0)
    assert _network_state(net) == before
    # the refused key is free, and the network solves as before
    net.add_flow("d", (2,), 1.0)
    net.recompute()
    net.check_rates()
    assert net.flows["d"].rate == 3.0


@pytest.mark.parametrize("size", [-5.0, -1e-300, math.inf, -math.inf,
                                  math.nan])
def test_add_flow_refuses_a_bad_size_and_changes_nothing(size):
    net = _shared_network()
    before = _network_state(net)
    with pytest.raises(ValueError, match="not finite and at least 0"):
        net.add_flow("d", (2,), size)
    assert _network_state(net) == before


def test_add_flow_takes_a_zero_size():
    net = FlowNetwork([4.0])
    net.add_flow("a", [0], 0)
    (flow,) = net.recompute()
    assert (flow.eta, flow.key) == (0.0, "a")


@pytest.mark.parametrize("path", BAD_PATHS)
def test_refused_set_path_leaves_the_flow_on_its_old_path(path):
    net = _shared_network()
    before = _network_state(net)
    with pytest.raises(ValueError, match="bad path"):
        net.set_path("a", path)
    assert _network_state(net) == before
    assert net.flows["a"].path == (0, 1)
    net.recompute()
    net.check_rates()
    assert [net.flows[key].rate for key in "ab"] == [1.0, 1.0]


def test_progress_audit_names_the_flow():
    net = _shared_network()
    net.recompute()
    net.check_progress()
    net.flows["b"].remaining_bits = -1.0
    with pytest.raises(AssertionError, match="flow 'b': -1.0 bits left"):
        net.check_progress()
    net.flows["b"].remaining_bits = 0.0
    net.flows["a"].eta = net.time - 0.25
    with pytest.raises(AssertionError,
                       match="flow 'a': ETA 0.25 before the clock 0.5"):
        net.check_progress()


def test_flow_network_rejects_time_reversal_and_dup_keys():
    net = FlowNetwork([1.0])
    net.settle_to(5.0)
    with pytest.raises(ValueError):
        net.settle_to(4.0)
    net.add_flow("x", (0,), 1.0)
    with pytest.raises(ValueError):
        net.add_flow("x", (0,), 1.0)


def test_link_loads_and_conservation_hook():
    net = FlowNetwork([100.0, 100.0, 100.0])
    net.add_flow("a", (0,), 100.0)
    net.add_flow("b", (0, 1), 100.0)
    net.recompute()
    loads = net.link_loads()
    assert loads == pytest.approx([100.0, 50.0, 0.0])
    net.check_conservation()
    net.flows["b"].rate = 60.0  # overloads link 0
    with pytest.raises(AssertionError):
        net.check_conservation()


def test_flow_on_unshared_links_is_solved_alone(monkeypatch):
    net = FlowNetwork([10.0, 10.0, 10.0, 4.0])
    net.add_flow("a", (0, 1), size_bytes=10.0)
    net.add_flow("b", (0,), size_bytes=10.0)
    net.recompute()
    rates = {key: flow.rate for key, flow in net.flows.items()}
    net.settle_to(1.0)
    solved, searched = [], []
    real_solve = flowsim.maxmin_rates
    real_component = FlowNetwork._component

    def spy(paths, capacities):
        solved.append(list(paths))
        return real_solve(paths, capacities)

    def spy_component(self, component, todo, found, seen):
        searched.append(list(todo))
        return real_component(self, component, todo, found, seen)

    monkeypatch.setattr(flowsim, "maxmin_rates", spy)
    monkeypatch.setattr(FlowNetwork, "_component", spy_component)
    net.add_flow("c", (2, 3), size_bytes=10.0)
    completions = net.recompute()
    # a lone flow is rated in closed form, with no search: its path's
    # smallest capacity
    assert solved == searched == []
    assert net.flows["c"].rate == 4.0
    # "a" and "b" keep their rates and their (exactly re-derived) ETAs
    assert {key: net.flows[key].rate for key in rates} == rates
    assert [(f.key, f.serial) for f in completions] == [("c", 2)]
    # removing "c" marks no link dirty: nothing to search
    net.remove_flow("c")
    assert net.recompute() == []
    assert solved == searched == []
    # removing "b" leaves "a" alone on dirty link 0: searched from
    # there, and the one-flow component is solved like any other
    net.remove_flow("b")
    net.recompute()
    assert searched == [[0]] and solved == [[(0, 1)]]
    assert net.flows["a"].rate == 10.0


def test_lone_flow_on_links_a_removal_left_dirty_is_solved_once(
        monkeypatch):
    """A fresh flow alone on the links a removal in the same step left
    dirty is rated where it is found; those links seed no search."""
    net = FlowNetwork([10.0, 10.0, 4.0])
    net.add_flow("a", (0,), size_bytes=10.0)
    net.add_flow("c", (1, 2), size_bytes=10.0)
    net.recompute()
    net.settle_to(1.0)
    searched = []
    real_component = FlowNetwork._component

    def spy_component(self, component, todo, found, seen):
        searched.append(list(todo))
        return real_component(self, component, todo, found, seen)

    monkeypatch.setattr(flowsim, "maxmin_rates", None)  # no solve may run
    monkeypatch.setattr(FlowNetwork, "_component", spy_component)
    net.remove_flow("c")
    net.add_flow("d", (2, 1), size_bytes=10.0)
    assert [flow.key for flow in net.recompute()] == ["d"]
    assert searched == []
    assert net.flows["d"].rate == 4.0
    monkeypatch.undo()  # the rate audit makes a real solve
    net.check_rates()


def test_removing_a_lone_flow_leaves_nothing_to_walk(monkeypatch):
    """A link emptied by a removal is never marked dirty, so the next
    recompute neither searches nor solves."""
    net = FlowNetwork([10.0, 10.0, 4.0])
    net.add_flow("a", (0,), size_bytes=10.0)
    net.add_flow("c", (1, 2), size_bytes=10.0)
    net.recompute()
    net.settle_to(1.0)
    calls = []
    real_solve = flowsim.maxmin_rates
    real_component = FlowNetwork._component

    def spy(paths, capacities):
        calls.append("maxmin_rates")
        return real_solve(paths, capacities)

    def spy_component(self, component, todo, found, seen):
        calls.append("_component")
        return real_component(self, component, todo, found, seen)

    monkeypatch.setattr(flowsim, "maxmin_rates", spy)
    monkeypatch.setattr(FlowNetwork, "_component", spy_component)
    net.remove_flow("c")
    assert net._dirty == set()
    assert net.recompute() == []
    assert calls == []
    assert net.flows["a"].rate == 10.0


@pytest.mark.parametrize("leave", [
    lambda net: net.remove_flow("a"),
    lambda net: net.set_path("a", (2,)),
], ids=["remove_flow", "set_path"])
def test_leaving_a_shared_link_marks_that_link_alone(leave):
    """"a" leaves link 0, which "b" still carries, and link 1, which it
    held alone: only link 0 is marked dirty."""
    net = FlowNetwork([10.0, 10.0, 10.0])
    net.add_flow("a", (0, 1), size_bytes=10.0)
    net.add_flow("b", (0,), size_bytes=10.0)
    net.recompute()
    leave(net)
    assert net._dirty == {0}
    net.recompute()
    net.check_rates()
    assert net.flows["b"].rate == 10.0


class FullRecomputeNetwork:
    """The flow core before incremental solves: every recompute solves
    every live flow in insertion order and returns an ETA for each. Kept
    as the reference the incremental ``FlowNetwork`` must match exactly.
    A flow is [path, remaining bits, rate]."""

    def __init__(self, capacities):
        self.capacities = capacities
        self.flows = {}
        self.time = 0.0

    def add_flow(self, key, path, size_bytes):
        self.flows[key] = [tuple(path), size_bytes * 8.0, 0.0]

    def remove_flow(self, key):
        del self.flows[key]

    def set_path(self, key, path):
        self.flows[key][0] = tuple(path)

    def settle_to(self, time):
        dt = time - self.time
        if dt > 0:
            for flow in self.flows.values():
                if flow[2] > 0 and math.isfinite(flow[2]):
                    flow[1] = max(0.0, flow[1] - flow[2] * dt)
        self.time = max(self.time, time)

    def recompute(self):
        """Set every rate; return {key: eta} for each finite ETA."""
        rates = maxmin_rates([flow[0] for flow in self.flows.values()],
                             self.capacities)
        etas = {}
        for (key, flow), rate in zip(self.flows.items(), rates):
            flow[2] = rate
            if rate > 0 and math.isfinite(rate):
                etas[key] = self.time + flow[1] / rate
            elif not flow[0]:
                flow[1] = 0.0
                etas[key] = self.time
        return etas


@st.composite
def flow_steps(draw):
    """Capacities 1-6 (frequent share ties) and a sequence of steps, as
    the simulator takes them: a few network mutations, one recompute,
    then one to three clock advances, each by ``dt`` or, when ``dt`` is
    None, to the earliest pending completion not yet reached. Paths are
    non-empty, as ``path_between`` makes them."""
    num_links = draw(st.integers(1, 5))
    caps = [float(draw(st.integers(1, 6))) for _ in range(num_links)]
    path = st.lists(st.integers(0, num_links - 1), min_size=1, max_size=3,
                    unique=True).map(tuple)
    add = st.tuples(st.just("add"), path, st.integers(1, 12))
    mutation = st.one_of(
        add, add,
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("set_path"), st.integers(0, 99), path),
    )
    dt = st.one_of(st.none(), st.integers(0, 8).map(lambda q: q / 4))
    step = st.tuples(st.lists(mutation, min_size=1, max_size=3),
                     st.lists(dt, min_size=1, max_size=3))
    return caps, draw(st.lists(step, min_size=1, max_size=20))


def _adds(*paths):
    return [("add", path, 1) for path in paths]


@settings(max_examples=300, deadline=None)
@given(flow_steps())
# the tied shares 1/3 round differently unless the solve takes its flows
# in insertion order
@example(([1.0, 1.0], [(_adds((0,), (0,), (0, 1), (1,), (1,)), [0.0])]))
# removing flow 0 touches link 0 only; flow 2 is reached through flow 1
@example(([1.0, 1.0], [(_adds((0,), (0, 1), (1,)), [0.0]),
                       ([("remove", 0)], [0.0])]))
# the flow left behind on link 0 speeds up after a remove or a move
@example(([1.0, 1.0], [(_adds((0,), (0,)), [0.0]),
                       ([("remove", 0)], [0.0])]))
@example(([1.0, 1.0], [(_adds((0,), (0,)), [0.0]),
                       ([("set_path", 0, (1,))], [0.0])]))
# two clock steps at rate 1/3 before the next recompute: draining them as
# one 0.5 s step leaves different last bits; the add touches link 1's
# flows and leaves link 0's, so both drain paths replay the steps
@example(([1.0, 1.0], [(_adds((0,), (0,), (0,), (1,), (1,), (1,)),
                        [0.25, 0.25]),
                       (_adds((1,)), [0.0])]))
# a fresh flow alone on its links, solved without a search, next to a
# shared component it leaves untouched
@example(([1.0, 1.0, 1.0], [(_adds((0,), (0,)), [0.25]),
                            (_adds((1, 2)), [0.25, None])]))
# the removal leaves one flow on dirty link 0, which speeds up mid-drain
@example(([1.0, 2.0], [(_adds((0,), (0, 1)), [0.25]),
                       ([("remove", 0)], [None])]))
# a path change onto a link another flow already uses; the link it left
# is dirty and empty
@example(([1.0, 1.0], [(_adds((0,), (1,)), [0.25]),
                       ([("set_path", 0, (1,))], [None])]))
# a fresh flow alone on link 0, which the removal in the same step left
# dirty: it is rated where it is found and the dirty link seeds nothing
@example(([1.0, 2.0], [(_adds((0,), (1,)), [0.25]),
                       ([("remove", 0), ("add", (0,), 1)], [None])]))
# a flow re-pathed after two recorded steps drains both at its old rate,
# 1/3, before its new path re-rates it
@example(([1.0, 1.0], [(_adds((0,), (0,), (0,)), [0.25, 0.5]),
                       ([("set_path", 0, (1,))], [None])]))
# a flow added while two steps are pending drains neither
@example(([1.0, 1.0], [(_adds((0,), (0,), (0,)), [0.25, 0.5]),
                       (_adds((1,)), [None])]))
# a lone flow moved from a capacity-4 link onto a capacity-1 link takes
# its new path's smallest capacity, not the one kept from its old path
@example(([4.0, 1.0], [(_adds((0,)), [0.25]),
                       ([("set_path", 0, (1,))], [None])]))
# quiet recomputes (nothing fresh, nothing dirty, one step): removing a
# flow alone on its link marks nothing, so one pass drains and times the
# rest; at rate 1/3 the ETAs it derives move in their last bits
@example(([1.0, 1.0], [(_adds((0,), (1,)), [0.25]),
                       ([("remove", 0)], [None])]))
@example(([1.0, 1.0], [(_adds((0,), (0,), (0,), (1,)), [0.25]),
                       ([("remove", 3)], [None])]))
@example(([1.0, 1.0, 1.0], [(_adds((0,), (0,), (0,), (1,), (2,)), [0.25]),
                            ([("remove", 3)], [0.5]),
                            ([("remove", 3)], [None])]))
def test_incremental_recompute_matches_full_in_lockstep(instance):
    caps, steps = instance
    net, ref = FlowNetwork(caps), FullRecomputeNetwork(caps)
    latest = {}  # key -> the reference's latest ETA (inf when none)
    next_key = 0
    for mutations, dts in steps:
        for op in mutations:
            live = list(ref.flows)
            if op[0] == "add":
                for n in (net, ref):
                    n.add_flow(next_key, op[1], op[2])
                next_key += 1
            elif live:
                key = live[op[1] % len(live)]
                for n in (net, ref):
                    if op[0] == "remove":
                        n.remove_flow(key)
                    else:
                        n.set_path(key, op[2])
        moved = net.recompute()
        etas = ref.recompute()
        assert [f.rate for f in net.flows.values()] == \
            [f[2] for f in ref.flows.values()]
        assert [f.remaining_bits for f in net.flows.values()] == \
            [f[1] for f in ref.flows.values()]
        assert [(f.eta, f.key) for f in moved] == [
            (eta, key) for key, eta in etas.items()
            if eta != latest.get(key, math.inf)]
        # each moved record is the live flow, serial and all
        assert all(net.flows[f.key] is f for f in moved)
        latest = {key: etas.get(key, math.inf) for key in ref.flows}
        assert {key: f.eta for key, f in net.flows.items()} == latest
        for dt in dts:
            if dt is None:
                time = min((eta for eta in latest.values() if eta > ref.time),
                           default=math.inf)
            else:
                time = ref.time + dt
            if math.isfinite(time):
                for n in (net, ref):
                    n.settle_to(time)


def test_quiet_recompute_is_one_pass_that_matches_the_reference(
        monkeypatch):
    """With nothing fresh, nothing dirty and one recorded step, a
    recompute calls neither ``_touched`` nor ``maxmin_rates`` and moves
    exactly the ETAs a full solve moves, with the same rates and bits."""
    caps = [1.0, 1.0]
    net, ref = FlowNetwork(caps), FullRecomputeNetwork(caps)
    for key, path in enumerate([(0,), (0,), (0,), (1,)]):
        for n in (net, ref):
            n.add_flow(key, path, 1)
    net.recompute()
    before = ref.recompute()
    for n in (net, ref):
        n.settle_to(0.25)
        n.remove_flow(3)  # alone on link 1: no link is marked dirty
    assert not net._fresh and not net._dirty and len(net._steps) == 1
    calls = []

    def touched(self):
        calls.append("_touched")
        return []

    def solve(paths, capacities):
        calls.append("maxmin_rates")
        return maxmin_rates(paths, capacities)

    monkeypatch.setattr(FlowNetwork, "_touched", touched)
    monkeypatch.setattr(flowsim, "maxmin_rates", solve)
    moved = net.recompute()
    assert calls == []
    etas = ref.recompute()
    expected = [(key, eta) for key, eta in etas.items()
                if eta != before[key]]
    # the three flows at 1/3 re-derive ETAs that differ in the last bits
    assert len(expected) == 3
    assert [(f.key, f.eta) for f in moved] == expected
    assert all(net.flows[f.key] is f for f in moved)
    assert [f.rate for f in net.flows.values()] == \
        [f[2] for f in ref.flows.values()]
    assert [f.remaining_bits for f in net.flows.values()] == \
        [f[1] for f in ref.flows.values()]


@st.composite
def component_steps(draw):
    """Capacities 1-6 (frequent share ties) and steps of adds, removes
    and moves whose paths are one link, a window of consecutive links (so
    flows chain through shared links) or any few links, each followed by
    a clock advance. Paths are non-empty, as ``path_between`` makes
    them."""
    num_links = draw(st.integers(1, 8))
    caps = [float(draw(st.integers(1, 6))) for _ in range(num_links)]
    link = st.integers(0, num_links - 1)
    path = st.one_of(
        link.map(lambda first: (first,)),
        st.tuples(link, st.integers(2, 3)).map(
            lambda w: tuple(range(w[0], min(w[0] + w[1], num_links)))),
        st.lists(link, min_size=1, max_size=3, unique=True).map(tuple),
    )
    mutation = st.one_of(
        st.tuples(st.just("add"), path, st.integers(1, 12)),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("set_path"), st.integers(0, 99), path),
    )
    step = st.tuples(st.lists(mutation, min_size=1, max_size=4),
                     st.integers(0, 4).map(lambda q: q / 4))
    return caps, draw(st.lists(step, min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(component_steps())
# a lone flow is rated by its smallest capacity, not its first link's
@example(([4.0, 2.0], [([("add", (0, 1), 1)], 0.0)]))
# one component, reached from flow 0 through links 1, 2 and 0 in turn,
# so its search finds the flows out of insertion order; the tied shares
# round differently unless the component is sorted back before its solve
@example(([1.0, 3.0, 1.0],
          [(_adds((1,), (0, 2), (0,), (1, 2), (0, 2)), 0.0)]))
def test_component_rates_match_one_full_solve(instance):
    """Solving each touched component alone, a lone flow in closed form,
    gives exactly the rates of one solve of every live flow."""
    caps, steps = instance
    net = FlowNetwork(caps)
    next_key = 0
    for mutations, dt in steps:
        for op in mutations:
            live = list(net.flows)
            if op[0] == "add":
                net.add_flow(next_key, op[1], op[2])
                next_key += 1
            elif live:
                key = live[op[1] % len(live)]
                if op[0] == "remove":
                    net.remove_flow(key)
                else:
                    net.set_path(key, op[2])
        net.recompute()
        flows = list(net.flows.values())
        assert [f.rate for f in flows] == \
            maxmin_rates([f.path for f in flows], caps)
        net.settle_to(net.time + dt)
