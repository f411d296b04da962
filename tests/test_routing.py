import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from defragsim.routing import (
    STRATEGIES, FlowDemand, edge_color, hopcroft_karp, stable_hash,
)
from defragsim.topology import SPRAY_COLOR, GpuId


def check_proper_coloring(edges, colors):
    """Independent properness check: no color repeats at any vertex."""
    seen_left = set()
    seen_right = set()
    for (u, v), c in zip(edges, colors):
        if (u, c) in seen_left or (v, c) in seen_right:
            return False
        seen_left.add((u, c))
        seen_right.add((v, c))
    return True


def test_hopcroft_karp_perfect_matching():
    adj = {0: [10, 11], 1: [10], 2: [11, 12]}
    matching = hopcroft_karp(adj)
    assert len(matching) == 3
    assert len(set(matching.values())) == 3


def test_hopcroft_karp_maximum_not_perfect():
    adj = {0: [10], 1: [10]}
    matching = hopcroft_karp(adj)
    assert len(matching) == 1


def test_edge_color_single_flow():
    colors, delta = edge_color([(0, 1)])
    assert delta == 1
    assert colors == [0]


def test_edge_color_star_needs_degree_colors():
    edges = [(0, r) for r in range(1, 6)]
    colors, delta = edge_color(edges)
    assert delta == 5
    assert sorted(colors) == list(range(5))
    assert check_proper_coloring(edges, colors)


def test_edge_color_random_multigraphs_delta_optimal():
    rng = random.Random(123)
    for trial in range(300):
        num_tors = rng.randint(2, 10)
        num_edges = rng.randint(1, 40)
        edges = []
        for _ in range(num_edges):
            u = rng.randrange(num_tors)
            v = rng.randrange(num_tors)
            while v == u:
                v = rng.randrange(num_tors)
            edges.append((u, v))
        out_deg, in_deg = defaultdict(int), defaultdict(int)
        for u, v in edges:
            out_deg[u] += 1
            in_deg[v] += 1
        delta_expect = max(max(out_deg.values()), max(in_deg.values()))
        colors, delta = edge_color(edges)
        assert delta == delta_expect
        assert len(set(colors)) <= delta
        assert check_proper_coloring(edges, colors)


def dp(key, job, src, dst, kind="dp"):
    """A demand from the first GPU of rack ``src`` to that of ``dst``."""
    return FlowDemand(key=key, job_id=job, src=GpuId(src, 0, 0),
                      dst=GpuId(dst, 0, 0), size_bytes=1e9, kind=kind)


def test_perfect_routing_isolates_within_uplinks():
    strategy = STRATEGIES["perfect"]()
    flows = [dp((1, i), 1, 0, i + 1) for i in range(3)]
    a = strategy.assign(flows, uplinks=4)
    used = [a[f.key] for f in flows]
    assert len(set(used)) == 3  # star: pairwise distinct at the hub


def test_perfect_routing_collapses_when_overloaded():
    strategy = STRATEGIES["perfect"]()
    flows = [dp((1, i), 1, 0, i + 1) for i in range(6)]
    a = strategy.assign(flows, uplinks=2)
    assert all(0 <= a[f.key] < 2 for f in flows)
    per_uplink = defaultdict(int)
    for f in flows:
        per_uplink[a[f.key]] += 1
    assert max(per_uplink.values()) == 3  # round-robin collapse is even


def test_perfect_routing_mice_round_robin():
    strategy = STRATEGIES["perfect"]()
    mice = [dp(("pp", i), 1, 0, 1, kind="pp") for i in range(4)]
    a = strategy.assign(mice, uplinks=2)
    assert [a[m.key] for m in mice] == [0, 1, 0, 1]


def test_ecmp_deterministic():
    strategy = STRATEGIES["ecmp"]()
    flows = [dp((7, i), 7, 0, 1) for i in range(10)]
    a1 = strategy.assign(flows, uplinks=4)
    a2 = strategy.assign(flows, uplinks=4)
    assert a1 == a2


def test_ecmp_single_uplink_all_collide():
    strategy = STRATEGIES["ecmp"]()
    flows = [dp((7, i), 7, 0, 1) for i in range(5)]
    a = strategy.assign(flows, uplinks=1)
    assert all(c == 0 for c in a.values())


def test_ecmp_collision_probability_half():
    # 2 flows on 2 uplinks collide about half the time over random tuples
    rng = random.Random(99)
    collisions = 0
    trials = 10_000
    for _ in range(trials):
        k1 = (rng.random(), rng.random())
        k2 = (rng.random(), rng.random())
        if stable_hash(k1) % 2 == stable_hash(k2) % 2:
            collisions += 1
    assert collisions / trials == pytest.approx(0.5, abs=0.05)


def test_crux_single_job_no_sharing():
    strategy = STRATEGIES["crux"]()
    flows = [dp((1, i), 1, 0, 1) for i in range(2)]
    a = strategy.assign(flows, uplinks=2, utilization={1: 0.9})
    assert a[(1, 0)] != a[(1, 1)]


def test_crux_two_jobs_same_tor_pair_disjoint():
    strategy = STRATEGIES["crux"]()
    flows = [dp((1, 0), 1, 0, 1), dp((2, 0), 2, 0, 1)]
    a = strategy.assign(flows, uplinks=2, utilization={1: 0.5, 2: 0.5})
    assert a[(1, 0)] != a[(2, 0)]


def test_crux_greedy_can_miss_isolation():
    # Three ToRs, 2 uplinks. The high-utilization job uses colors at ToRs
    # 0 and 1 first; a constructed follow-up job then cannot avoid
    # sharing at ToR 0 under greedy order, while edge coloring isolates.
    strategy = STRATEGIES["crux"]()
    flows = [
        dp((1, 0), 1, 0, 1), dp((1, 1), 1, 1, 0),
        dp((2, 0), 2, 0, 2), dp((2, 1), 2, 2, 0),
        dp((3, 0), 3, 0, 1),
    ]
    a = strategy.assign(flows, uplinks=3,
                        utilization={1: 0.9, 2: 0.8, 3: 0.7})
    perfect = STRATEGIES["perfect"]().assign(flows, uplinks=3)
    # perfect always isolates here (max degree 3 <= 3 uplinks)
    src_seen, dst_seen = set(), set()
    for f in flows:
        c = perfect[f.key]
        assert (f.src.rack, c) not in src_seen
        assert (f.dst.rack, c) not in dst_seen
        src_seen.add((f.src.rack, c))
        dst_seen.add((f.dst.rack, c))


def test_sglb_balanced_no_moves():
    strategy = STRATEGIES["sglb"]()
    flows = [dp((1, 0), 1, 0, 1), dp((2, 0), 2, 0, 1)]
    a = {(1, 0): 0, (2, 0): 1}
    assert strategy.rebalance(flows, uplinks=2, colors=a) is False


def test_sglb_drains_overloaded_uplink():
    strategy = STRATEGIES["sglb"]()
    flows = [dp((1, 0), 1, 0, 1), dp((2, 0), 2, 0, 1)]
    a = {(1, 0): 0, (2, 0): 0}
    assert strategy.rebalance(flows, uplinks=2, colors=a) is True
    assert sorted(a.values()) == [0, 1]
    assert strategy.rebalance(flows, uplinks=2, colors=a) is False


def test_sglb_converges_from_collided_start():
    strategy = STRATEGIES["sglb"]()
    flows = [dp((1, i), 1, 0, 1) for i in range(8)]
    a = {f.key: 0 for f in flows}
    for _ in range(len(flows) * 4):
        if not strategy.rebalance(flows, uplinks=4, colors=a):
            break
    loads = defaultdict(int)
    for f in flows:
        loads[a[f.key]] += 1
    assert max(loads.values()) <= 2  # ceil(8 / 4)


@st.composite
def sglb_instances(draw):
    """Elephant and mice demands over up to 5 racks, 1-4 uplinks, and
    starting colors for some or all of them."""
    uplinks = draw(st.integers(1, 4))
    racks = st.integers(0, 4)
    kinds = st.sampled_from(["dp", "dp", "dp", "pp", "migration"])
    flows = [dp((i, kind), i % 3, src, dst, kind)
             for i, (src, dst, kind) in enumerate(draw(st.lists(
                 st.tuples(racks, racks, kinds), max_size=16)))]
    color = st.one_of(st.integers(0, uplinks - 1), st.integers(0, uplinks - 1),
                      st.none())
    colors = {f.key: c for f in flows if (c := draw(color)) is not None}
    return flows, uplinks, colors


@settings(max_examples=500, deadline=None)
@given(sglb_instances())
# a single pass over these is not stable: a second one moves a flow
@example(([dp((i, "dp"), 0, src, dst) for i, (src, dst) in
           enumerate([(0, 1), (0, 0), (1, 0), (0, 0)])], 3,
          {(0, "dp"): 0, (1, "dp"): 0, (2, "dp"): 2, (3, "dp"): 0}))
def test_sglb_rebalance_again_moves_nothing(instance):
    """The fact the simulator's rebalance skip rests on: once rebalance
    returns, a second call on the same demands and colors returns False
    and writes nothing."""
    flows, uplinks, colors = instance
    strategy = STRATEGIES["sglb"]()
    strategy.rebalance(flows, uplinks=uplinks, colors=colors)
    settled = dict(colors)
    assert strategy.rebalance(flows, uplinks=uplinks, colors=colors) is False
    assert colors == settled


def test_spray_assigns_aggregate_color():
    strategy = STRATEGIES["spray"]()
    flows = [dp((1, 0), 1, 0, 1)]
    a = strategy.assign(flows, uplinks=4)
    assert a[(1, 0)] == SPRAY_COLOR
