import pytest

from defragsim.topology import (
    SPRAY_COLOR, ClusterTopology, GpuId, TopologyError,
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
    # GPU (0, 0, 0) is NIC 0, GPU (0, 1, 3) NIC 11: ids 2*nic + down
    path = path_between(topo, GpuId(0, 0, 0), GpuId(0, 1, 3))
    assert path == (0, 23)
    assert all(link < topo.uplink_base for link in path)


def test_cross_rack_path_structure():
    # Enumerate all cross-rack pairs in a 2-rack toy topology: NICs are
    # 0-15, rack 0's ToR links 16-21 and rack 1's 22-27, uplink 1 up at
    # rack 0 and down at rack 1.
    topo = ClusterTopology(2, 2, 2, 2, 400e9, 400e9)
    for src_host in range(2):
        for dst_host in range(2):
            for s in range(2):
                for d in range(2):
                    src, dst = GpuId(0, src_host, s), GpuId(1, dst_host, d)
                    path = path_between(topo, src, dst, 1)
                    assert path == (2 * (2 * src_host + s), 18, 25,
                                    2 * (4 + 2 * dst_host + d) + 1)


def test_spray_path_takes_the_tor_aggregates():
    # 12 GPUs: NICs 0-23, then 6 ToR ids per rack, the last two of each
    # rack (28-29, 34-35, 40-41) its spray aggregate
    topo = ClusterTopology(3, 2, 2, 2, 400.0, 50.0)
    src, dst = GpuId(0, 1, 0), GpuId(2, 0, 1)
    path = path_between(topo, src, dst, SPRAY_COLOR)
    assert path == (4, 28, 41, 19)
    # each aggregate carries both uplinks' capacity
    assert [topo.link_capacities[l] for l in path] == [400.0, 100.0,
                                                       100.0, 400.0]
    # a same-rack path ignores the colour
    assert path_between(topo, src, GpuId(0, 0, 0), SPRAY_COLOR) == (4, 1)


def test_link_ids_dense_and_capacities():
    # 2 racks x 1 host x 2 GPUs, 2 uplinks: NICs 0-7, rack 0's uplinks
    # 8-11 and its spray pair 12-13, rack 1's links 14-19
    topo = ClusterTopology(2, 1, 2, 2, 100.0, 50.0)
    gpu = topo.gpu
    assert topo.uplink_base == 8
    assert path_between(topo, gpu(0, 0, 0), gpu(1, 0, 1), 0) == (0, 8, 15, 7)
    assert path_between(topo, gpu(0, 0, 1), gpu(1, 0, 0), 1) \
        == (2, 10, 17, 5)
    assert path_between(topo, gpu(1, 0, 0), gpu(0, 0, 1), SPRAY_COLOR) \
        == (4, 18, 13, 3)
    assert topo.link_capacities \
        == [100.0] * 8 + ([50.0] * 4 + [100.0] * 2) * 2


@pytest.mark.parametrize("shape", [(2, 1, 2, 2), (3, 2, 2, 3), (2, 3, 1, 1)])
def test_paths_cover_every_link_with_its_capacity(shape):
    """Over every GPU pair on different hosts and every colour, spray
    included, the paths name every link id exactly as link_capacities
    lays them out: a flow leaves on even ids and arrives on odd ones,
    ids below uplink_base are NICs, and a spray pair carries all of its
    ToR's uplinks."""
    topo = ClusterTopology(*shape, 100.0, 30.0)
    caps = topo.link_capacities
    uplinks = topo.uplinks_per_tor
    colors = [*range(uplinks), SPRAY_COLOR]
    seen = set()
    for src in topo.gpus:
        for dst in topo.gpus:
            if (src.rack, src.host) == (dst.rack, dst.host):
                continue
            for color in colors:
                path = path_between(topo, src, dst, color)
                assert type(path) is tuple
                half = len(path) // 2
                assert [link % 2 for link in path] == [0] * half + [1] * half
                assert path[0] < topo.uplink_base and caps[path[0]] == 100.0
                assert path[-1] < topo.uplink_base and caps[path[-1]] == 100.0
                if src.rack != dst.rack:
                    tor = 30.0 * uplinks if color == SPRAY_COLOR else 30.0
                    assert topo.uplink_base <= min(path[1:3])
                    assert [caps[path[1]], caps[path[2]]] == [tor, tor]
                seen.update(path)
    assert seen == set(range(len(caps)))
    assert set(caps[:topo.uplink_base]) == {100.0}


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
