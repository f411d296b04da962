import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    assert not q


def test_flow_network_single_flow_completion():
    net = FlowNetwork([100.0])  # link 0: 100 bits/s
    net.add_flow("f", (0,), size_bytes=100.0)  # 800 bits
    (eta, key, gen) = net.recompute()[0]
    assert key == "f" and eta == pytest.approx(8.0)
    net.settle_to(eta)
    assert net.flows["f"].remaining_bits == pytest.approx(0.0)


def test_flow_network_generation_invalidates_old_etas():
    net = FlowNetwork([100.0])
    net.add_flow("a", (0,), size_bytes=100.0)
    first = net.recompute()
    net.add_flow("b", (0,), size_bytes=100.0)
    second = net.recompute()
    assert second[0][2] == first[0][2] + 1
    # with the link now shared, "a" finishes at 16s, not 8s
    etas = {key: eta for eta, key, _ in second}
    assert etas["a"] == pytest.approx(16.0)


def test_flow_network_settle_partial_then_speedup():
    net = FlowNetwork([100.0])
    net.add_flow("a", (0,), size_bytes=100.0)
    net.add_flow("b", (0,), size_bytes=100.0)
    net.recompute()
    net.settle_to(8.0)  # each drained 400 of 800 bits
    net.remove_flow("b")
    completions = net.recompute()
    assert completions[0][0] == pytest.approx(12.0)  # 400 bits at full rate


def test_flow_network_empty_path_completes_instantly():
    net = FlowNetwork([100.0])
    net.settle_to(3.0)
    net.add_flow("local", (), size_bytes=1e9)
    completions = net.recompute()
    assert completions == [(3.0, "local", net.generation)]


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
