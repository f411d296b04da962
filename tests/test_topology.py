import pytest

from defragsim.topology import (
    SPRAY_COLOR, ClusterTopology, Direction, GpuId, TopologyError,
    path_between,
)


def test_paper_scale_cluster():
    topo = ClusterTopology(16, 8, 8, 16, 400e9, 400e9)
    assert topo.total_gpus == 1024
    assert topo.oversubscription_ratio == pytest.approx(4.0)


def test_degenerate_singleton():
    topo = ClusterTopology(1, 1, 1, 1, 1e9, 1e9)
    assert topo.total_gpus == 1
    assert topo.oversubscription_ratio == pytest.approx(1.0)


def test_motivating_example_cluster():
    topo = ClusterTopology(8, 4, 1, 2, 1.0, 1.0)
    assert topo.total_gpus == 32
    assert topo.num_racks == 8
    assert topo.uplinks_per_tor == 2


def test_zero_counts_rejected():
    with pytest.raises(TopologyError):
        ClusterTopology(0, 8, 8, 16, 400e9, 400e9)
    with pytest.raises(TopologyError):
        ClusterTopology(16, 8, 8, 16, 0.0, 400e9)


def test_same_host_path_rejected():
    # intra-host traffic is out of model: no path crosses zero links
    topo = ClusterTopology(2, 2, 8, 2, 400e9, 400e9)
    with pytest.raises(TopologyError):
        path_between(topo, GpuId(0, 0, 0), GpuId(0, 0, 5))


def test_same_rack_path_two_links():
    topo = ClusterTopology(2, 2, 8, 2, 400e9, 400e9)
    src, dst = GpuId(0, 0, 0), GpuId(0, 1, 3)
    path = path_between(topo, src, dst)
    assert path == [topo.nic_link(src, Direction.UP),
                    topo.nic_link(dst, Direction.DOWN)]
    assert all(link < topo.uplink_base for link in path)


def test_cross_rack_path_structure():
    # Enumerate all cross-rack pairs in a 2-rack toy topology.
    topo = ClusterTopology(2, 2, 2, 2, 400e9, 400e9)
    for src_host in range(2):
        for dst_host in range(2):
            for s in range(2):
                for d in range(2):
                    src, dst = GpuId(0, src_host, s), GpuId(1, dst_host, d)
                    path = path_between(topo, src, dst, 1)
                    assert path == [
                        topo.nic_link(src, Direction.UP),
                        topo.uplink_link(0, 1, Direction.UP),
                        topo.uplink_link(1, 1, Direction.DOWN),
                        topo.nic_link(dst, Direction.DOWN),
                    ]


def test_spray_path_takes_the_tor_aggregates():
    topo = ClusterTopology(3, 2, 2, 2, 400.0, 50.0)
    src, dst = GpuId(0, 1, 0), GpuId(2, 0, 1)
    path = path_between(topo, src, dst, SPRAY_COLOR)
    aggregate_base = topo.uplink_base + 2 * topo.uplinks_per_tor
    per_rack = 2 * (topo.uplinks_per_tor + 1)
    assert path == [
        topo.nic_link(src, Direction.UP),
        aggregate_base,  # rack 0, up
        aggregate_base + 2 * per_rack + 1,  # rack 2, down
        topo.nic_link(dst, Direction.DOWN),
    ]
    # each aggregate carries both uplinks' capacity
    assert [topo.link_capacities[l] for l in path] == [400.0, 100.0,
                                                       100.0, 400.0]
    # a same-rack path ignores the colour
    assert path_between(topo, src, GpuId(0, 0, 0), SPRAY_COLOR) == [
        topo.nic_link(src, Direction.UP),
        topo.nic_link(GpuId(0, 0, 0), Direction.DOWN)]


def test_link_ids_dense_and_capacities():
    topo = ClusterTopology(3, 2, 4, 2, 100.0, 50.0)
    nics = [topo.nic_link(GpuId(r, h, g), d)
            for r in range(3) for h in range(2) for g in range(4)
            for d in Direction]
    tor = [topo.uplink_link(r, u, d) for r in range(3) for u in range(2)
           for d in Direction]
    spray = [topo.uplink_link(r, SPRAY_COLOR, d) for r in range(3)
             for d in Direction]
    caps = topo.link_capacities
    assert sorted(nics + tor + spray) == list(range(len(caps)))
    assert max(nics) < topo.uplink_base <= min(tor + spray)
    assert {caps[l] for l in nics} == {100.0}
    assert {caps[l] for l in tor} == {50.0}
    assert {caps[l] for l in spray} == {100.0}  # both uplinks together


def test_uplink_out_of_range():
    topo = ClusterTopology(2, 2, 2, 2, 400e9, 400e9)
    with pytest.raises(TopologyError):
        path_between(topo, GpuId(0, 0, 0), GpuId(1, 0, 0), 5)


def test_src_equals_dst_rejected():
    topo = ClusterTopology(2, 2, 2, 2, 400e9, 400e9)
    with pytest.raises(TopologyError):
        path_between(topo, GpuId(0, 0, 0), GpuId(0, 0, 0))


@pytest.mark.parametrize("racks,hosts,gpus,uplinks,ratio", [
    (16, 8, 8, 16, 4.0),
    (16, 8, 8, 64, 1.0),
    (32, 2, 8, 1, 16.0),
    (8, 4, 8, 8, 4.0),
])
def test_oversubscription_grid(racks, hosts, gpus, uplinks, ratio):
    topo = ClusterTopology(racks, hosts, gpus, uplinks, 400e9, 400e9)
    assert topo.oversubscription_ratio == pytest.approx(ratio)
